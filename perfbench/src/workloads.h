// Entry points of the four benchmark workloads (see ../NOTES.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "bench_util.h"
#include "graph/prob_graph.h"
#include "util/status.h"

namespace perfbench {

/// The paper's offline pipeline on Epinions-F: load -> index -> typical
/// sweep -> InfMax_TC -> packed snapshot.
int RunBuildDense(const Options& options);

/// serve_light, serve_heavy and serve_update: an in-process ServeTcp server
/// driven over loopback sockets.
int RunServe(const Options& options);

/// A registry dataset written as an edge list: the only form in which the
/// program under test sees its input graph.
struct GeneratedGraph {
  std::string path;
  soi::NodeId num_nodes = 0;
  uint64_t num_edges = 0;
};

/// Generates registry configuration `config` at `scale` from the workload
/// seed and writes it under the work directory (untimed preparation).
soi::Result<GeneratedGraph> WriteDataset(const std::string& config,
                                         double scale, const Options& options);

/// Loads a generated edge list the way every workload does.
soi::Result<soi::ProbGraph> LoadGenerated(const GeneratedGraph& graph);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
