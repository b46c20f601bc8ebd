#include "graph/graph_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

namespace soi {

namespace {

struct RawEdge {
  uint64_t src, dst;
  double prob;
  bool has_prob;
};

// Parses one whitespace-separated row; returns false for blank/comment rows.
Result<bool> ParseRow(const std::string& line, size_t line_no, RawEdge* out) {
  size_t i = 0;
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i == line.size() || line[i] == '#') return false;

  std::istringstream iss(line);
  if (!(iss >> out->src >> out->dst)) {
    return Status::IOError("line " + std::to_string(line_no) +
                           ": expected '<src> <dst> [<prob>]'");
  }
  // Parse the optional probability column strictly: a present-but-garbage
  // third token must be an error, never a silent fall-back to the default
  // (stream extraction would also accept "nan"/"inf" on some platforms).
  std::string prob_token;
  out->has_prob = static_cast<bool>(iss >> prob_token);
  if (out->has_prob) {
    errno = 0;
    char* end = nullptr;
    out->prob = std::strtod(prob_token.c_str(), &end);
    if (errno != 0 || end == prob_token.c_str() || *end != '\0' ||
        !std::isfinite(out->prob)) {
      return Status::IOError("line " + std::to_string(line_no) +
                             ": bad probability '" + prob_token + "'");
    }
  }
  std::string trailing;
  if (iss >> trailing) {
    return Status::IOError("line " + std::to_string(line_no) +
                           ": unexpected trailing token '" + trailing + "'");
  }
  return true;
}

// The header ToEdgeListString writes; its n keeps trailing isolated nodes.
constexpr std::string_view kHeaderPrefix = "# soi edge list: n=";

// Node count of a `# soi edge list: n=N ...` header line, or nullopt when
// `line` is not one.
Result<std::optional<uint64_t>> ParseHeaderNodes(const std::string& line,
                                                 size_t line_no) {
  if (line.rfind(kHeaderPrefix, 0) != 0) return std::optional<uint64_t>();
  const char* begin = line.c_str() + kHeaderPrefix.size();
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(begin, &end, 10);
  if (errno != 0 || end == begin || !std::isdigit(static_cast<unsigned char>(
                                        *begin)) ||
      (*end != '\0' && !std::isspace(static_cast<unsigned char>(*end))) ||
      n >= kInvalidNode) {
    return Status::IOError("line " + std::to_string(line_no) +
                           ": bad node count in '" + line + "'");
  }
  return std::optional<uint64_t>(n);
}

}  // namespace

Result<ProbGraph> ParseEdgeList(const std::string& text,
                                const EdgeListOptions& options) {
  std::vector<RawEdge> rows;
  uint64_t max_id = 0;
  std::optional<uint64_t> header_nodes;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (!header_nodes.has_value()) {
      SOI_ASSIGN_OR_RETURN(header_nodes, ParseHeaderNodes(line, line_no));
    }
    RawEdge e{};
    SOI_ASSIGN_OR_RETURN(const bool is_edge, ParseRow(line, line_no, &e));
    if (!is_edge) continue;
    max_id = std::max({max_id, e.src, e.dst});
    rows.push_back(e);
  }

  // An explicit num_nodes wins over the header; the header wins over the
  // largest id, so a saved graph's trailing isolated nodes survive a load.
  NodeId n = options.num_nodes;
  std::string n_source = "num_nodes";
  if (n == 0 && header_nodes.has_value()) {
    n = static_cast<NodeId>(*header_nodes);
    n_source = "the header's n";
  }
  if (n == 0) {
    n = rows.empty() ? 0 : static_cast<NodeId>(max_id + 1);
  } else if (!rows.empty() && max_id >= n) {
    return Status::OutOfRange("edge references node " + std::to_string(max_id) +
                              " but " + n_source + "=" + std::to_string(n));
  }
  if (max_id >= kInvalidNode) {
    return Status::OutOfRange("node ids must fit in 32 bits");
  }

  ProbGraphBuilder builder(n);
  builder.keep_max_duplicate(options.keep_max_duplicate);
  for (const RawEdge& e : rows) {
    const double p = e.has_prob ? e.prob : options.default_prob;
    const NodeId u = static_cast<NodeId>(e.src);
    const NodeId v = static_cast<NodeId>(e.dst);
    if (options.undirected) {
      SOI_RETURN_IF_ERROR(builder.AddUndirectedEdge(u, v, p));
    } else {
      SOI_RETURN_IF_ERROR(builder.AddEdge(u, v, p));
    }
  }
  return builder.Build();
}

Result<ProbGraph> LoadEdgeList(const std::string& path,
                               const EdgeListOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseEdgeList(buf.str(), options);
}

std::string ToEdgeListString(const ProbGraph& graph) {
  std::ostringstream out;
  out << "# soi edge list: " << graph.Summary() << "\n";
  char buf[96];
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    std::snprintf(buf, sizeof(buf), "%u %u %.9g\n",
                  static_cast<unsigned>(graph.EdgeSource(e)),
                  static_cast<unsigned>(graph.EdgeTarget(e)),
                  graph.EdgeProb(e));
    out << buf;
  }
  return out.str();
}

Status SaveEdgeList(const ProbGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << ToEdgeListString(graph);
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace soi
