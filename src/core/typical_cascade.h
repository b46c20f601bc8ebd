#ifndef SOI_CORE_TYPICAL_CASCADE_H_
#define SOI_CORE_TYPICAL_CASCADE_H_

#include <span>
#include <vector>

#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "jaccard/median.h"
#include "util/rng.h"
#include "util/status.h"

namespace soi {

/// Options for typical-cascade computation.
struct TypicalCascadeOptions {
  MedianOptions median;
};

/// The sphere of influence of a source (paper Problem 1, approximated per
/// §3-§4): an approximate minimizer of the expected Jaccard distance to a
/// random cascade, plus bookkeeping the experiments report.
struct TypicalCascadeResult {
  /// Approximate typical cascade C*, sorted ascending.
  std::vector<NodeId> cascade;
  /// Empirical cost on the index samples (in-sample; biased low, Thm 2).
  double in_sample_cost = 0.0;
  /// Mean size of the sampled cascades the median was computed from.
  double mean_sample_size = 0.0;
  /// Wall time to extract cascades + compute the median, excluding index
  /// construction (this is what Figure 4 plots).
  double compute_seconds = 0.0;
  /// Which candidate family produced the median (ablation bookkeeping).
  MedianResult::Source median_source = MedianResult::Source::kThreshold;
};

/// Structure-of-arrays form of a whole-graph sweep: `cascades.Set(v)` is the
/// typical cascade of node v, in one contiguous arena ready for the cover
/// engine; the bookkeeping vectors are indexed by node and match
/// TypicalCascadeResult field-for-field.
struct TypicalCascadeSweep {
  FlatSets cascades;
  std::vector<double> in_sample_cost;
  std::vector<double> mean_sample_size;
  std::vector<double> compute_seconds;
  std::vector<MedianResult::Source> median_source;
};

/// The per-node step of Algorithm 2: the Jaccard median of one node's l
/// sampled cascades, taken in world order. The whole-graph sweep and the
/// dynamic index's typical-row patch (src/dynamic/) both run it, so a
/// patched row is byte-identical to a re-swept one. Owns reusable scratch;
/// not thread-safe, create one per thread.
class NodeMedianSolver {
 public:
  NodeMedianSolver(NodeId num_nodes, uint32_t num_worlds,
                   const MedianOptions& options);

  /// `cascade_in(i)` yields the node's cascade in world i as a span sorted
  /// ascending (index output always is, so the solver skips validation).
  template <typename CascadeIn>
  Result<MedianResult> Solve(CascadeIn&& cascade_in) {
    mean_sample_size_ = 0.0;
    for (uint32_t i = 0; i < views_.size(); ++i) {
      views_[i] = cascade_in(i);
      mean_sample_size_ += static_cast<double>(views_[i].size());
    }
    mean_sample_size_ /= static_cast<double>(views_.size());
    return solver_.Compute(
        std::span<const std::span<const NodeId>>(views_), options_);
  }

  /// Mean size of the cascades the last Solve() saw.
  double mean_sample_size() const { return mean_sample_size_; }

 private:
  MedianOptions options_;
  JaccardMedianSolver solver_;
  std::vector<std::span<const NodeId>> views_;
  double mean_sample_size_ = 0.0;
};

/// Computes typical cascades against a prebuilt CascadeIndex (Algorithm 2).
/// Owns reusable scratch; not thread-safe, create one per thread.
class TypicalCascadeComputer {
 public:
  /// `index` must outlive the computer.
  explicit TypicalCascadeComputer(const CascadeIndex* index);

  /// Typical cascade of a single source node.
  Result<TypicalCascadeResult> Compute(
      NodeId source, const TypicalCascadeOptions& options = {});

  /// Typical cascade of a seed set (used for stability of seed sets, §5).
  Result<TypicalCascadeResult> ComputeForSeeds(
      std::span<const NodeId> seeds,
      const TypicalCascadeOptions& options = {});

  /// Algorithm 2: typical cascades of every node. Results indexed by node.
  Result<std::vector<TypicalCascadeResult>> ComputeAll(
      const TypicalCascadeOptions& options = {});

  /// ComputeAll emitting straight into a flat arena (one allocation for all
  /// n cascades instead of one vector per node) — the representation
  /// InfMaxTC / the cover engine consume directly. Identical cascades and
  /// bookkeeping to ComputeAll for every thread count.
  Result<TypicalCascadeSweep> ComputeAllFlat(
      const TypicalCascadeOptions& options = {});

  const CascadeIndex& index() const { return *index_; }

 private:
  // Shared ComputeAll/ComputeAllFlat sweep: calls
  // emit(chunk, node, MedianResult&&, mean_sample_size, compute_seconds)
  // for every node, sequentially within a chunk, chunks covering ascending
  // contiguous node ranges.
  template <typename Emit>
  Status SweepAllNodes(const TypicalCascadeOptions& options, Emit&& emit);

  const CascadeIndex* index_;
  CascadeIndex::Workspace ws_;
  CascadeIndex::CascadeArena arena_;
  JaccardMedianSolver solver_;
};

/// Unbiased hold-out estimate of the expected cost rho_{G,seeds}(candidate):
/// averages the Jaccard distance from `candidate` to `num_samples` freshly
/// simulated cascades (independent of whatever samples produced the
/// candidate — Theorem 2 is precisely about the gap between this and the
/// in-sample cost). `candidate` must be sorted ascending (median / index
/// output already is); unsorted input is rejected, not silently re-sorted.
Result<double> EstimateExpectedCost(const ProbGraph& graph,
                                    std::span<const NodeId> seeds,
                                    std::span<const NodeId> candidate,
                                    uint32_t num_samples, Rng* rng);

}  // namespace soi

#endif  // SOI_CORE_TYPICAL_CASCADE_H_
