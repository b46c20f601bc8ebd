#ifndef SOI_INFMAX_WEIGHTED_COVER_H_
#define SOI_INFMAX_WEIGHTED_COVER_H_

#include <vector>

#include "infmax/types.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

/// Weighted and budgeted variants of InfMax_TC — the paper's §8 future-work
/// directions, made concrete:
///
///  * "different segments of market have different values for a campaign":
///    maximize the total *value* of the nodes covered by the selected
///    spheres of influence (weighted max-cover). Because the spheres are
///    precomputed once, re-running a campaign with new segment values reuses
///    the same index — exactly the paper's argued advantage.
///
///  * "different nodes have different costs to become a seed": maximize
///    coverage subject to a budget on the summed seed costs (budgeted
///    max-cover, Khuller-Moss-Naor). Greedy by value-per-cost plus the
///    best-single-element fallback gives the classic (1 - 1/sqrt(e)) bound
///    (or (1 - 1/e)/2 for the simple variant implemented here).
///
/// Both run on the cover engine's weighted kernels (lazy-refresh heaps over
/// flat storage — see infmax/cover_engine.h), bit-identical to the previous
/// vector-of-vectors implementations.

/// Options for the weighted variant.
struct WeightedCoverOptions {
  uint32_t k = 50;
};

/// Greedy weighted max-cover over the typical cascades. `node_values[v]` is
/// the campaign value of reaching v (>= 0); objective_after reports the
/// total covered value.
Result<GreedyResult> InfMaxTcWeighted(const FlatSets& typical_cascades,
                                      const std::vector<double>& node_values,
                                      const WeightedCoverOptions& options);

/// Convenience overload for the nested representation.
Result<GreedyResult> InfMaxTcWeighted(
    const std::vector<std::vector<NodeId>>& typical_cascades,
    const std::vector<double>& node_values, const WeightedCoverOptions& options);

/// Options for the budgeted variant.
struct BudgetedCoverOptions {
  /// Total budget; seeds are added while affordable.
  double budget = 10.0;
  /// Also consider the best single affordable seed and return whichever of
  /// {ratio-greedy solution, best single} covers more value (the
  /// Khuller-Moss-Naor fix that restores a constant-factor guarantee).
  bool best_single_fallback = true;
};

/// Result of budgeted selection.
struct BudgetedCoverResult {
  std::vector<NodeId> seeds;       // in selection order
  double total_cost = 0.0;
  double covered_value = 0.0;
  /// True when the best-single fallback beat the ratio-greedy solution.
  bool used_single_fallback = false;
};

/// Budgeted weighted max-cover over typical cascades: maximize covered value
/// subject to sum of `node_costs[seed]` <= budget. Costs must be positive.
Result<BudgetedCoverResult> InfMaxTcBudgeted(
    const FlatSets& typical_cascades, const std::vector<double>& node_values,
    const std::vector<double>& node_costs, const BudgetedCoverOptions& options);

/// Convenience overload for the nested representation.
Result<BudgetedCoverResult> InfMaxTcBudgeted(
    const std::vector<std::vector<NodeId>>& typical_cascades,
    const std::vector<double>& node_values,
    const std::vector<double>& node_costs,
    const BudgetedCoverOptions& options);

}  // namespace soi

#endif  // SOI_INFMAX_WEIGHTED_COVER_H_
