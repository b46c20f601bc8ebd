#include "scc/transitive.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "util/bitvector.h"

namespace soi {

namespace {

// Collects the reduced DAG row by row, parents in increasing id, in the
// layout Csr::FromEdges gives (each row ascending) without building and
// sorting an edge list.
class ReducedDag {
 public:
  ReducedDag(uint32_t nc, uint32_t max_edges) {
    csr_.offsets.reserve(nc + 1);
    csr_.offsets.push_back(0);
    csr_.targets.reserve(max_edges);
  }
  void Keep(uint32_t v) { csr_.targets.push_back(v); }
  void EndRow() {
    std::sort(csr_.targets.begin() + csr_.offsets.back(), csr_.targets.end());
    csr_.offsets.push_back(static_cast<uint32_t>(csr_.targets.size()));
  }
  Csr Finish() {
    csr_.targets.shrink_to_fit();  // the DAG is stored with the world
    return std::move(csr_);
  }

 private:
  Csr csr_;
};

// Dense strategy: process components in increasing id (children before
// parents, by the Tarjan invariant) maintaining full reachability bitsets.
ReductionStats ReduceDense(Condensation* cond) {
  const uint32_t nc = cond->num_components();
  ReductionStats stats;
  stats.edges_before = cond->num_dag_edges();

  std::vector<BitVector> reach(nc);
  ReducedDag reduced(nc, stats.edges_before);
  std::vector<uint32_t> children;

  for (uint32_t c = 0; c < nc; ++c) {
    reach[c].Resize(nc);
    const auto succ = cond->DagSuccessors(c);
    children.assign(succ.begin(), succ.end());
    // Decreasing id: a child that reaches another child precedes it here.
    std::sort(children.begin(), children.end(), std::greater<uint32_t>());
    BitVector& acc = reach[c];
    for (uint32_t v : children) {
      if (acc.Test(v)) continue;  // implied by a longer path
      reduced.Keep(v);
      acc |= reach[v];
      acc.Set(v);
    }
    reduced.EndRow();
    acc.Set(c);
  }
  cond->ReplaceDag(reduced.Finish());
  stats.edges_after = cond->num_dag_edges();
  return stats;
}

// DFS strategy: per parent, scan children in decreasing id order; a child
// already marked by the DFS of an earlier (kept) sibling is redundant. When
// the visit budget runs out, `partial` keeps the remaining parents' edges
// unreduced (kDfs); otherwise the attempt is abandoned and nullopt returned
// with *cond untouched (kAuto, which falls back to the dense strategy).
std::optional<ReductionStats> ReduceDfs(Condensation* cond, uint64_t budget,
                                        bool partial) {
  const uint32_t nc = cond->num_components();
  ReductionStats stats;
  stats.edges_before = cond->num_dag_edges();

  std::vector<uint32_t> stamp(nc, 0);
  std::vector<uint32_t> stack;
  ReducedDag reduced(nc, stats.edges_before);
  std::vector<uint32_t> children;
  uint64_t visits = 0;

  for (uint32_t c = 0; c < nc; ++c) {
    const auto succ = cond->DagSuccessors(c);
    const bool out_of_budget = succ.size() > 1 && visits > budget;
    if (out_of_budget && !partial) return std::nullopt;
    if (succ.size() <= 1 || out_of_budget) {  // kept unreduced
      stats.truncated |= out_of_budget;
      for (uint32_t v : succ) reduced.Keep(v);
      reduced.EndRow();
      continue;
    }
    children.assign(succ.begin(), succ.end());
    std::sort(children.begin(), children.end(), std::greater<uint32_t>());
    const uint32_t stamp_id = c + 1;
    for (uint32_t v : children) {
      if (stamp[v] == stamp_id) continue;  // redundant
      reduced.Keep(v);
      // Mark everything reachable from v (including v).
      stack.push_back(v);
      stamp[v] = stamp_id;
      while (!stack.empty()) {
        const uint32_t x = stack.back();
        stack.pop_back();
        ++visits;
        for (uint32_t y : cond->DagSuccessors(x)) {
          if (stamp[y] != stamp_id) {
            stamp[y] = stamp_id;
            stack.push_back(y);
          }
        }
      }
    }
    reduced.EndRow();
  }
  cond->ReplaceDag(reduced.Finish());
  stats.edges_after = cond->num_dag_edges();
  return stats;
}

}  // namespace

ReductionStats TransitiveReduce(Condensation* cond,
                                const ReductionOptions& options) {
  ReductionStrategy strategy = options.strategy;
  if (strategy == ReductionStrategy::kAuto) {
    const uint64_t nc = cond->num_components();
    if (nc > options.dense_limit) {
      strategy = ReductionStrategy::kDfs;
    } else {
      // Sampled worlds are mostly sparse DAGs, where DFS marking is far
      // cheaper than nc-bit sets. Try it first and fall back to the dense
      // bitsets on the untouched DAG when its budget runs out; both yield
      // the unique transitive reduction. A visit costs about two bitset
      // words, so capping the attempt at half the dense footprint (nc^2
      // bits) keeps a DAG that defeats DFS near the dense strategy's cost.
      const uint64_t dense_words = nc * ((nc + 63) / 64);
      if (auto stats = ReduceDfs(
              cond, std::min(options.dfs_visit_budget, dense_words / 2),
              /*partial=*/false)) {
        return *stats;
      }
      strategy = ReductionStrategy::kDenseBitset;
    }
  }
  switch (strategy) {
    case ReductionStrategy::kNone: {
      ReductionStats stats;
      stats.edges_before = stats.edges_after = cond->num_dag_edges();
      return stats;
    }
    case ReductionStrategy::kDenseBitset:
      return ReduceDense(cond);
    case ReductionStrategy::kDfs:
      return *ReduceDfs(cond, options.dfs_visit_budget, /*partial=*/true);
    case ReductionStrategy::kAuto:
      break;
  }
  SOI_CHECK(false && "unreachable");
  return {};
}

bool SameReachability(const Condensation& cond, const Csr& other_dag) {
  const uint32_t nc = cond.num_components();
  if (other_dag.num_nodes() != nc) return false;
  std::vector<uint32_t> stamp_a(nc, 0), stamp_b(nc, 0);
  std::vector<uint32_t> order;
  auto collect = [&](auto neighbors, uint32_t start,
                     std::vector<uint32_t>* stamp, uint32_t id) {
    std::vector<uint32_t> out;
    out.push_back(start);
    (*stamp)[start] = id;
    for (size_t read = 0; read < out.size(); ++read) {
      for (uint32_t y : neighbors(out[read])) {
        if ((*stamp)[y] != id) {
          (*stamp)[y] = id;
          out.push_back(y);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (uint32_t c = 0; c < nc; ++c) {
    auto ra = collect([&](uint32_t x) { return cond.DagSuccessors(x); }, c,
                      &stamp_a, c + 1);
    auto rb = collect([&](uint32_t x) { return other_dag.Neighbors(x); }, c,
                      &stamp_b, c + 1);
    if (ra != rb) return false;
  }
  return true;
}

}  // namespace soi
