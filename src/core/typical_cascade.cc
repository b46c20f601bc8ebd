#include "core/typical_cascade.h"

#include <algorithm>

#include "cascade/simulate.h"
#include "jaccard/jaccard.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "util/stats.h"

namespace soi {

namespace {
// Node-batch size of the whole-graph sweep; ComputeAllFlat relies on the
// chunk count implied by this to pre-size its per-chunk arenas.
constexpr NodeId kSweepBatch = 32;
}  // namespace

NodeMedianSolver::NodeMedianSolver(NodeId num_nodes, uint32_t num_worlds,
                                   const MedianOptions& options)
    : options_(options), solver_(num_nodes), views_(num_worlds) {
  options_.trusted_presorted = true;
}

TypicalCascadeComputer::TypicalCascadeComputer(const CascadeIndex* index)
    : index_(index), solver_(index->num_nodes()) {
  SOI_CHECK(index != nullptr);
}

Result<TypicalCascadeResult> TypicalCascadeComputer::Compute(
    NodeId source, const TypicalCascadeOptions& options) {
  const NodeId seeds[1] = {source};
  return ComputeForSeeds(std::span<const NodeId>(seeds, 1), options);
}

Result<TypicalCascadeResult> TypicalCascadeComputer::ComputeForSeeds(
    std::span<const NodeId> seeds, const TypicalCascadeOptions& options) {
  SOI_RETURN_IF_ERROR(ValidateSeedSet(seeds, index_->num_nodes()));
  WallTimer timer;
  SOI_OBS_COUNTER_ADD("typical/computations", 1);
  {
    SOI_OBS_SPAN("typical/extract_cascades");
    SOI_RETURN_IF_ERROR(index_->AllCascadesInto(seeds, &ws_, &arena_));
  }
  const std::vector<std::span<const NodeId>>& cascades = arena_.Views();
  double mean_size = 0.0;
  for (const auto& c : cascades) mean_size += static_cast<double>(c.size());
  mean_size /= static_cast<double>(cascades.size());

  // Index cascades are sorted by construction, so the median solver can
  // skip its per-element validation pass.
  MedianOptions median_options = options.median;
  median_options.trusted_presorted = true;
  SOI_ASSIGN_OR_RETURN(MedianResult median, [&] {
    SOI_OBS_SPAN("typical/jaccard_median");
    return solver_.Compute(
        std::span<const std::span<const NodeId>>(cascades), median_options);
  }());

  TypicalCascadeResult result;
  result.cascade = std::move(median.median);
  result.in_sample_cost = median.cost;
  result.mean_sample_size = mean_size;
  result.compute_seconds = timer.ElapsedSeconds();
  result.median_source = median.source;
  return result;
}

template <typename Emit>
Status TypicalCascadeComputer::SweepAllNodes(
    const TypicalCascadeOptions& options, Emit&& emit) {
  SOI_OBS_SPAN("typical/sweep_all_nodes");
  const NodeId n = index_->num_nodes();
  const uint32_t l = index_->num_worlds();

  // For a materialized world, a node's cascades are zero-copy spans into
  // the memoized per-world runs — there is nothing to extract. For every
  // other world (labels, traversal, or a closure served packed from a
  // snapshot), extract in world-major batches: all cascades of a node batch
  // one world at a time, so each world's state stays hot across the whole
  // batch, then run the per-node Jaccard medians off the shared arena.
  // Mixed indexes extract only the worlds without spans (arena slots are
  // compacted over those). Nodes are independent and use no randomness, so
  // results are identical for every thread count and batch size. Each chunk
  // gets its own scratch because workspace, arena and solver are stateful.
  std::vector<uint32_t> arena_slot(l, UINT32_MAX);
  uint32_t num_extract = 0;
  for (uint32_t i = 0; i < l; ++i) {
    if (index_->tier(i) != WorldTier::kMaterialized ||
        index_->closure(i).packed()) {
      arena_slot[i] = num_extract++;
    }
  }
  const uint64_t num_batches = (n + kSweepBatch - 1) / kSweepBatch;
  std::vector<Status> chunk_status(PlannedChunks(num_batches, 1), Status::OK());
  ParallelForChunks(
      0, num_batches, /*grain=*/1,
      [&](uint32_t chunk, uint64_t chunk_begin, uint64_t chunk_end) {
        CascadeIndex::Workspace ws;
        CascadeIndex::CascadeArena arena;
        NodeMedianSolver solver(n, l, options.median);
        for (uint64_t b = chunk_begin; b < chunk_end; ++b) {
          const NodeId first = static_cast<NodeId>(b * kSweepBatch);
          const NodeId last = std::min<NodeId>(first + kSweepBatch, n);
          const uint32_t batch = last - first;
          WallTimer extract_timer;
          if (num_extract > 0) {
            SOI_OBS_SPAN("typical/extract_cascades");
            arena.Clear();
            for (uint32_t i = 0; i < l; ++i) {
              if (arena_slot[i] == UINT32_MAX) continue;
              for (NodeId v = first; v < last; ++v) {
                index_->AppendCascade(v, i, &ws, &arena);
              }
            }
          }
          // Extraction is shared; attribute an equal share to each node so
          // per-node compute_seconds still sums to sweep time.
          const double extract_share =
              extract_timer.ElapsedSeconds() / static_cast<double>(batch);
          SOI_OBS_COUNTER_ADD("typical/computations", batch);
          for (uint32_t j = 0; j < batch; ++j) {
            WallTimer median_timer;
            auto median = [&]() -> Result<MedianResult> {
              SOI_OBS_SPAN("typical/jaccard_median");
              return solver.Solve([&](uint32_t i) {
                return arena_slot[i] == UINT32_MAX
                           ? index_->CachedCascade(first + j, i)
                           : arena.View(static_cast<size_t>(arena_slot[i]) *
                                            batch +
                                        j);
              });
            }();
            if (!median.ok()) {
              chunk_status[chunk] = median.status();
              return;
            }
            emit(chunk, first + j, std::move(median.value()),
                 solver.mean_sample_size(),
                 extract_share + median_timer.ElapsedSeconds());
          }
        }
      });
  for (const Status& status : chunk_status) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Result<std::vector<TypicalCascadeResult>> TypicalCascadeComputer::ComputeAll(
    const TypicalCascadeOptions& options) {
  std::vector<TypicalCascadeResult> all(index_->num_nodes());
  SOI_RETURN_IF_ERROR(SweepAllNodes(
      options, [&](uint32_t /*chunk*/, NodeId v, MedianResult&& median,
                   double mean_size, double seconds) {
        TypicalCascadeResult& r = all[v];
        r.cascade = std::move(median.median);
        r.in_sample_cost = median.cost;
        r.mean_sample_size = mean_size;
        r.median_source = median.source;
        r.compute_seconds = seconds;
      }));
  return all;
}

Result<TypicalCascadeSweep> TypicalCascadeComputer::ComputeAllFlat(
    const TypicalCascadeOptions& options) {
  const NodeId n = index_->num_nodes();
  TypicalCascadeSweep sweep;
  sweep.in_sample_cost.resize(n);
  sweep.mean_sample_size.resize(n);
  sweep.compute_seconds.resize(n);
  sweep.median_source.resize(n, MedianResult::Source::kThreshold);
  // Chunks cover ascending contiguous node ranges and emit sequentially
  // within a chunk, so per-chunk arenas concatenated in chunk order land in
  // node order. Stats are slot writes.
  const uint64_t num_batches = (n + kSweepBatch - 1) / kSweepBatch;
  std::vector<FlatSets> chunk_cascades(PlannedChunks(num_batches, 1));
  SOI_RETURN_IF_ERROR(SweepAllNodes(
      options, [&](uint32_t chunk, NodeId v, MedianResult&& median,
                   double mean_size, double seconds) {
        chunk_cascades[chunk].AddSet(median.median);
        sweep.in_sample_cost[v] = median.cost;
        sweep.mean_sample_size[v] = mean_size;
        sweep.median_source[v] = median.source;
        sweep.compute_seconds[v] = seconds;
      }));
  uint64_t total = 0;
  for (const FlatSets& cs : chunk_cascades) total += cs.total_elements();
  sweep.cascades.Reserve(n, total);
  for (const FlatSets& cs : chunk_cascades) sweep.cascades.Append(cs);
  return sweep;
}

Result<double> EstimateExpectedCost(const ProbGraph& graph,
                                    std::span<const NodeId> seeds,
                                    std::span<const NodeId> candidate,
                                    uint32_t num_samples, Rng* rng) {
  SOI_RETURN_IF_ERROR(ValidateSeedSet(seeds, graph.num_nodes()));
  if (num_samples == 0) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  // Candidates come out of the median solver / the index already sorted, so
  // require that instead of copy+sorting on every call (this function runs
  // once per node in ranking/stability sweeps).
  if (!std::is_sorted(candidate.begin(), candidate.end())) {
    return Status::InvalidArgument("candidate must be sorted ascending");
  }
  // Per-sample streams + per-sample slots, reduced in sample order: the
  // estimate is bit-identical for every thread count.
  const Rng streams = rng->Fork();
  const std::vector<double> distances = ParallelMap<double>(
      0, num_samples, /*grain=*/8, [&](uint64_t i) {
        Rng sample_rng = streams.Fork(i);
        const std::vector<NodeId> cascade =
            SimulateCascade(graph, seeds, &sample_rng);
        return JaccardDistance(cascade, candidate);
      });
  const double total =
      OrderedReduce(distances, 0.0, [](double acc, double d) { return acc + d; });
  return total / static_cast<double>(num_samples);
}

}  // namespace soi
