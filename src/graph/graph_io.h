#ifndef SOI_GRAPH_GRAPH_IO_H_
#define SOI_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/prob_graph.h"
#include "util/status.h"

namespace soi {

/// Text formats understood by the loader, compatible with SNAP-style edge
/// lists:
///
///   # comment lines start with '#'
///   <src> <dst> [<prob>]
///
/// When the probability column is missing the edge gets `default_prob`
/// (so raw SNAP files load directly and probabilities can be assigned
/// afterwards with the assigners in graph/prob_assign.h).
struct EdgeListOptions {
  /// Probability used for rows without a third column.
  double default_prob = 0.1;
  /// Treat every row as an undirected edge (adds both arcs).
  bool undirected = false;
  /// Number of nodes; if 0, taken from a `# soi edge list: n=N` header
  /// (what SaveEdgeList writes) when the text has one, else inferred as
  /// max id + 1. Either way, an id >= n is an error.
  NodeId num_nodes = 0;
  /// Keep the max-probability copy of duplicate arcs instead of failing.
  bool keep_max_duplicate = false;
};

/// Parses an edge list from a string (exposed separately for testability).
Result<ProbGraph> ParseEdgeList(const std::string& text,
                                const EdgeListOptions& options = {});

/// Loads an edge list file.
Result<ProbGraph> LoadEdgeList(const std::string& path,
                               const EdgeListOptions& options = {});

/// Writes "src dst prob" rows (with a header comment) to `path`.
Status SaveEdgeList(const ProbGraph& graph, const std::string& path);

/// Serializes the graph in the same text format to a string.
std::string ToEdgeListString(const ProbGraph& graph);

}  // namespace soi

#endif  // SOI_GRAPH_GRAPH_IO_H_
