#ifndef SOI_SCC_TRANSITIVE_H_
#define SOI_SCC_TRANSITIVE_H_

#include <cstdint>

#include "scc/condensation.h"

namespace soi {

/// Strategy for the DAG transitive reduction applied to each condensation
/// (paper §4 uses Aho–Garey–Ullman [3]; for a DAG the reduction is the unique
/// minimal subgraph with the same reachability, obtainable by deleting edges
/// that are implied by longer paths).
enum class ReductionStrategy {
  /// For DAGs of at most dense_limit components, try kDfs first and fall
  /// back to kDenseBitset when its visit budget (capped at the dense
  /// strategy's estimated cost) runs out; kDfs otherwise. Always the full
  /// reduction below dense_limit.
  kAuto,
  /// Skip reduction entirely (ablation baseline; queries stay correct, the
  /// index just stores more edges).
  kNone,
  /// Per-component reachability bitsets, O(nc * m / 64). Fast but needs
  /// nc^2 bits of transient memory; used when nc <= dense_limit.
  kDenseBitset,
  /// Incremental DFS marking per parent; O(sum of reachable sets) worst
  /// case with a global visit budget guard (partial reductions are safe).
  kDfs,
};

struct ReductionOptions {
  ReductionStrategy strategy = ReductionStrategy::kAuto;
  /// Largest component count for which the dense strategy is attempted.
  uint32_t dense_limit = 8192;
  /// Visit budget for the DFS strategy; when exhausted the remaining
  /// parents keep their edges unreduced.
  uint64_t dfs_visit_budget = 50'000'000;
};

struct ReductionStats {
  uint32_t edges_before = 0;
  uint32_t edges_after = 0;
  /// True if the DFS budget ran out and some redundant edges survive.
  bool truncated = false;
};

/// Replaces the condensation's DAG with its transitive reduction in place.
/// Exploits the Tarjan invariant (edges go from higher to lower component
/// ids): among the children of a parent, any child reachable from another
/// child has a strictly smaller id, so scanning children in decreasing id
/// order with an accumulated reachability set identifies redundant edges.
ReductionStats TransitiveReduce(Condensation* cond,
                                const ReductionOptions& options = {});

/// Returns true iff `a` and `b` define the same reachability relation over
/// components (brute-force; test utility, O(nc * (nc + m))).
bool SameReachability(const Condensation& a, const Csr& other_dag);

}  // namespace soi

#endif  // SOI_SCC_TRANSITIVE_H_
