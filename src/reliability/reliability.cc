#include "reliability/reliability.h"

#include <algorithm>

#include "cascade/world.h"
#include "obs/metrics.h"
#include "util/bitvector.h"

namespace soi {

namespace {

Status CheckSeeds(NodeId num_nodes, std::span<const NodeId> seeds) {
  return ValidateSeedSet(seeds, num_nodes);
}

}  // namespace

Result<double> EstimateReliability(const ProbGraph& graph, NodeId source,
                                   NodeId target, uint32_t num_samples,
                                   Rng* rng) {
  const NodeId seeds[1] = {source};
  SOI_RETURN_IF_ERROR(CheckSeeds(graph.num_nodes(), seeds));
  if (target >= graph.num_nodes()) {
    return Status::OutOfRange("target out of range");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  SOI_OBS_SPAN("reliability/estimate");
  SOI_OBS_COUNTER_ADD("reliability/samples", num_samples);
  uint32_t hits = 0;
  for (uint32_t i = 0; i < num_samples; ++i) {
    // BFS with on-the-fly coin flips and early exit at the target: cheaper
    // than materializing the world when the target is close.
    BitVector active(graph.num_nodes());
    std::vector<NodeId> frontier{source};
    active.Set(source);
    bool reached = source == target;
    for (size_t read = 0; read < frontier.size() && !reached; ++read) {
      const NodeId u = frontier[read];
      const auto nbrs = graph.OutNeighbors(u);
      const auto probs = graph.OutProbs(u);
      for (size_t j = 0; j < nbrs.size(); ++j) {
        if (active.Test(nbrs[j]) || !rng->NextBernoulli(probs[j])) continue;
        if (nbrs[j] == target) {
          reached = true;
          break;
        }
        active.Set(nbrs[j]);
        frontier.push_back(nbrs[j]);
      }
    }
    hits += reached;
  }
  return static_cast<double>(hits) / num_samples;
}

Result<std::vector<double>> ReachabilityProbabilities(
    const CascadeIndex& index, std::span<const NodeId> seeds) {
  SOI_RETURN_IF_ERROR(CheckSeeds(index.num_nodes(), seeds));
  SOI_OBS_SPAN("reliability/reachability_probabilities");
  std::vector<uint32_t> counts(index.num_nodes(), 0);
  CascadeIndex::Workspace ws;
  // One arena reused across the l worlds: its buffer grows to the largest
  // cascade once instead of one vector per world.
  CascadeIndex::CascadeArena arena;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    arena.Clear();
    index.AppendCascade(seeds, i, &ws, &arena);
    for (NodeId v : arena.View(0)) ++counts[v];
  }
  std::vector<double> probs(index.num_nodes());
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    probs[v] = static_cast<double>(counts[v]) / index.num_worlds();
  }
  return probs;
}

Result<std::vector<NodeId>> ReliabilitySearch(const CascadeIndex& index,
                                              std::span<const NodeId> seeds,
                                              double threshold) {
  if (!(threshold >= 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("threshold must be in [0, 1]");
  }
  SOI_ASSIGN_OR_RETURN(const std::vector<double> probs,
                       ReachabilityProbabilities(index, seeds));
  std::vector<NodeId> out;
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    if (probs[v] >= threshold) out.push_back(v);
  }
  return out;
}

Result<double> EstimateDistanceConstrainedReliability(const ProbGraph& graph,
                                                      NodeId source,
                                                      NodeId target,
                                                      uint32_t max_hops,
                                                      uint32_t num_samples,
                                                      Rng* rng) {
  const NodeId seeds[1] = {source};
  SOI_RETURN_IF_ERROR(CheckSeeds(graph.num_nodes(), seeds));
  if (target >= graph.num_nodes()) {
    return Status::OutOfRange("target out of range");
  }
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  SOI_OBS_SPAN("reliability/estimate_distance_constrained");
  SOI_OBS_COUNTER_ADD("reliability/samples", num_samples);
  uint32_t hits = 0;
  std::vector<NodeId> frontier, next;
  for (uint32_t i = 0; i < num_samples; ++i) {
    BitVector active(graph.num_nodes());
    frontier.assign(1, source);
    active.Set(source);
    bool reached = source == target;
    for (uint32_t hop = 0; hop < max_hops && !reached && !frontier.empty();
         ++hop) {
      next.clear();
      for (NodeId u : frontier) {
        const auto nbrs = graph.OutNeighbors(u);
        const auto probs = graph.OutProbs(u);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          if (active.Test(nbrs[j]) || !rng->NextBernoulli(probs[j])) continue;
          active.Set(nbrs[j]);
          if (nbrs[j] == target) {
            reached = true;
            break;
          }
          next.push_back(nbrs[j]);
        }
        if (reached) break;
      }
      frontier.swap(next);
    }
    hits += reached;
  }
  return static_cast<double>(hits) / num_samples;
}

Result<double> ExpectedReachableSize(const CascadeIndex& index,
                                     std::span<const NodeId> seeds) {
  SOI_RETURN_IF_ERROR(CheckSeeds(index.num_nodes(), seeds));
  CascadeIndex::Workspace ws;
  uint64_t total = 0;
  for (uint32_t i = 0; i < index.num_worlds(); ++i) {
    SOI_ASSIGN_OR_RETURN(const uint64_t size, index.CascadeSize(seeds, i, &ws));
    total += size;
  }
  return static_cast<double>(total) / index.num_worlds();
}

}  // namespace soi
