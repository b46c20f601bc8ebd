#ifndef SOI_INFMAX_INFMAX_TC_H_
#define SOI_INFMAX_INFMAX_TC_H_

#include <vector>

#include "infmax/types.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

/// Options for InfMax_TC.
struct InfMaxTcOptions {
  uint32_t k = 50;
  /// Record MG_10/MG_1 (Figure 7) per step. With maintained gains this is
  /// O(n) per round instead of the former O(n * |C|) rescan.
  bool track_saturation = false;
};

/// InfMax_TC (paper Algorithm 3): greedy maximum coverage over the typical
/// cascades of the singleton nodes. `typical_cascades.Set(v)` is the sphere
/// of influence C_v (sorted node set) computed by Algorithm 2; the objective
/// is |union of C_v over selected v|.
///
/// The objective is monotone submodular, so greedy is a (1 - 1/e)-
/// approximation of the best *coverage* — the paper's point is that
/// maximizing this proxy outperforms maximizing estimated spread once the
/// spread signal saturates. Selection runs on CoverEngine: exact-decrement
/// gain maintenance over an inverted index plus a monotone lazy bucket
/// queue, O(Σ|C_v|) total across all k rounds.
Result<GreedyResult> InfMaxTC(const FlatSets& typical_cascades,
                              NodeId num_nodes, const InfMaxTcOptions& options);

/// Convenience overload for the nested representation (copies into a
/// FlatSets arena first).
Result<GreedyResult> InfMaxTC(
    const std::vector<std::vector<NodeId>>& typical_cascades, NodeId num_nodes,
    const InfMaxTcOptions& options);

}  // namespace soi

#endif  // SOI_INFMAX_INFMAX_TC_H_
