#include "dynamic/dynamic_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "cascade/threshold.h"
#include "core/typical_cascade.h"
#include "jaccard/median.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "scc/transitive.h"
#include "util/stats.h"

namespace soi {

namespace {

// Tolerance of the LT in-weight budget, matching ValidateLtWeights.
constexpr double kLtEps = 1e-9;

bool SameCascade(std::span<const NodeId> a, std::span<const NodeId> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

Result<DynamicIndex> DynamicIndex::Build(const ProbGraph& graph,
                                         const CascadeIndexOptions& options,
                                         uint64_t seed) {
  if (options.num_worlds == 0) {
    return Status::InvalidArgument("DynamicIndex: num_worlds must be >= 1");
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("DynamicIndex: empty graph");
  }
  if (options.model == PropagationModel::kLinearThreshold) {
    SOI_RETURN_IF_ERROR(ValidateLtWeights(graph));
  }
  SOI_OBS_SPAN("dynamic/build");
  DynamicIndex out;
  out.graph_ = DynamicGraph::FromGraph(graph);
  out.options_ = options;
  out.seed_ = seed;

  const KeyedWorldSampler sampler = out.Sampler();
  std::vector<Condensation> worlds(options.num_worlds);
  ParallelFor(0, options.num_worlds, /*grain=*/1, [&](uint64_t i) {
    worlds[i] = out.DeriveWorld(sampler, static_cast<uint32_t>(i));
  });
  SOI_ASSIGN_OR_RETURN(
      out.index_,
      CascadeIndex::FromWorlds(graph.num_nodes(), std::move(worlds),
                               options.closure_budget_mb,
                               options.tier_policy));
  return out;
}

Condensation DynamicIndex::DeriveWorld(const KeyedWorldSampler& sampler,
                                       uint32_t i) const {
  const Csr world = sampler.SampleWorld(i);
  Condensation cond = Condensation::Build(world);
  if (options_.transitive_reduction) {
    TransitiveReduce(&cond, options_.reduction);
  }
  return cond;
}

Status DynamicIndex::ValidateLtBudget(const GraphUpdate& update) const {
  if (update.kind == UpdateKind::kEdgeDelete) return Status::OK();
  const NodeId v = update.dst;
  double budget = graph_.InWeight(v) + update.prob;
  if (update.kind == UpdateKind::kProbUpdate) {
    SOI_ASSIGN_OR_RETURN(const double old, graph_.EdgeProb(update.src, v));
    budget -= old;
  }
  if (budget > 1.0 + kLtEps) {
    return Status::InvalidArgument(
        "Linear Threshold update on arc (" + std::to_string(update.src) +
        "," + std::to_string(v) + ") would push node " + std::to_string(v) +
        "'s incoming weight to " + std::to_string(budget) +
        " > 1; re-weight its other in-arcs first");
  }
  return Status::OK();
}

Result<UpdateStats> DynamicIndex::ApplyUpdates(
    std::span<const GraphUpdate> updates) {
  SOI_ASSIGN_OR_RETURN(PreparedUpdate prepared,
                       PrepareUpdates(updates, typical_ready_));
  return CommitUpdates(&prepared);
}

Result<PreparedUpdate> DynamicIndex::PrepareUpdates(
    std::span<const GraphUpdate> updates, bool patch_typical) {
  SOI_CHECK(!update_pending_);  // the previous prepare was never committed
  WallTimer timer;
  PreparedUpdate out;
  out.had_typical_ = patch_typical;
  if (updates.empty()) {
    update_pending_ = true;
    return out;
  }
  SOI_OBS_SPAN("dynamic/prepare_updates");

  const uint32_t num_worlds = index_.num_worlds();
  if (world_mark_.size() < num_worlds) world_mark_.assign(num_worlds, 0);
  if (++world_stamp_ == 0) {  // stamp wrapped: hard reset
    std::fill(world_mark_.begin(), world_mark_.end(), 0);
    world_stamp_ = 1;
  }

  // Phase 1 — apply the batch to the graph, atomically. Each update
  // validates against the state its predecessors left; its affected-world
  // set and its inverse are taken against that same pre-op state (the
  // keyed coins never move, so per-op affected sets compose by union: a
  // world outside the union kept its live-edge selection at every step).
  const KeyedWorldSampler sampler = Sampler();
  std::vector<uint32_t>& affected = out.affected_;
  std::vector<GraphUpdate> undo;
  undo.reserve(updates.size());
  const auto rollback = [&] {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      const Status undone = graph_.Apply(*it);
      SOI_CHECK(undone.ok());
    }
  };
  Status failure = Status::OK();
  for (const GraphUpdate& update : updates) {
    failure = graph_.Validate(update);
    if (failure.ok() &&
        options_.model == PropagationModel::kLinearThreshold) {
      failure = ValidateLtBudget(update);
    }
    if (!failure.ok()) break;
    sampler.AffectedWorlds(update, num_worlds, &world_mark_, world_stamp_,
                           &affected);
    Result<GraphUpdate> inverse = graph_.Inverse(update);
    SOI_CHECK(inverse.ok());  // Validate passed; the arc state is known
    undo.push_back(std::move(*inverse));
    const Status applied = graph_.Apply(update);
    SOI_CHECK(applied.ok());
  }
  if (!failure.ok()) {
    rollback();
    return failure;
  }
  out.stats_.applied_ops = static_cast<uint32_t>(updates.size());

  if (affected.empty()) {
    out.stats_.seconds = timer.ElapsedSeconds();
    update_pending_ = true;
    return out;
  }
  std::sort(affected.begin(), affected.end());
  out.stats_.affected_worlds = static_cast<uint32_t>(affected.size());
  SOI_OBS_COUNTER_ADD("dynamic/worlds_recomputed", affected.size());

  // Phase 2 — re-derive exactly the affected worlds (and, when the cache
  // is live, their closures) from the updated graph. Per-world results are
  // pure functions of (seed, world, graph), so this parallel loop is
  // thread-count independent.
  //
  // Cache strategy by tier state: a fully materialized index is patched
  // incrementally (per-world closure swap, byte-identical to a rebuild). A
  // mixed-tier or labels index instead gets a full deterministic tier
  // reassignment after the world swap — per-world incremental accounting
  // has no meaning when the greedy assignment itself depends on world
  // order. A pure-traversal index keeps no cache either way.
  const bool had_cache = index_.has_closure_cache();
  const bool tiered_cache =
      !had_cache && index_.stats().worlds_traversal != index_.num_worlds();
  const uint64_t budget_bytes = options_.closure_budget_mb << 20;
  std::vector<Condensation>& new_worlds = out.worlds_;
  std::vector<ReachabilityClosure>& new_closures = out.closures_;
  new_worlds.resize(affected.size());
  new_closures.resize(had_cache ? affected.size() : 0);
  std::atomic<bool> closure_over{false};
  ParallelFor(0, affected.size(), /*grain=*/1, [&](uint64_t k) {
    new_worlds[k] = DeriveWorld(sampler, affected[k]);
    if (had_cache) {
      ReachabilityClosure cl =
          BuildReachabilityClosure(new_worlds[k], budget_bytes / 4);
      if (cl.num_components() != new_worlds[k].num_components()) {
        closure_over.store(true, std::memory_order_relaxed);
      } else {
        new_closures[k] = std::move(cl);
      }
    }
  });

  // Closure-cache fate, mirroring the all-or-nothing build policy: patch
  // when every affected world rebuilt under the per-world cap AND the
  // patched total stays within budget; otherwise drop the whole cache
  // (queries fall back to traversal, byte-identical answers) or, under a
  // tier-capable policy, reassign tiers — labels usually still fit.
  bool keep_cache = had_cache && !closure_over.load();
  if (keep_cache) {
    uint64_t total = index_.stats().closure_bytes;
    for (size_t k = 0; k < affected.size(); ++k) {
      total -= index_.closure(affected[k]).ApproxBytes();
      total += new_closures[k].ApproxBytes();
    }
    keep_cache = total <= budget_bytes;
  }
  using CacheFate = PreparedUpdate::CacheFate;
  if (keep_cache) {
    out.cache_ = CacheFate::kPatch;
  } else {
    new_closures.clear();
    if (tiered_cache ||
        (had_cache &&
         options_.tier_policy != ClosureTierPolicy::kMaterialized)) {
      out.cache_ = CacheFate::kRebuildTiers;
    } else if (had_cache) {
      out.cache_ = CacheFate::kDrop;
    }
  }

  // Phase 3 — the typical table. With the closure cache on both sides,
  // exactly the nodes whose cascade differs in some affected world can
  // change; their rows are recomputed here, from the old index's runs for
  // unaffected worlds and the new runs for affected ones. Without the
  // cache on both sides the table is dropped at commit instead.
  if (patch_typical) {
    if (!keep_cache) {
      out.stats_.affected_nodes = index_.num_nodes();
    } else {
      Result<std::optional<FlatSets>> patched =
          PatchTypical(affected, new_worlds, new_closures,
                       &out.stats_.affected_nodes);
      if (!patched.ok()) {
        rollback();
        return patched.status();
      }
      out.typical_ = std::move(*patched);
    }
  }

  out.stats_.seconds = timer.ElapsedSeconds();
  update_pending_ = true;
  return out;
}

Result<std::optional<FlatSets>> DynamicIndex::PatchTypical(
    std::span<const uint32_t> affected,
    std::span<const Condensation> new_worlds,
    std::span<const ReachabilityClosure> new_closures,
    uint32_t* changed_count) const {
  const NodeId num_nodes = index_.num_nodes();
  const uint32_t num_worlds = index_.num_worlds();
  std::vector<uint8_t> node_changed(num_nodes, 0);
  ParallelFor(0, num_nodes, /*grain=*/512, [&](uint64_t v) {
    const NodeId node = static_cast<NodeId>(v);
    for (size_t k = 0; k < affected.size(); ++k) {
      const auto old_run = index_.CachedCascade(node, affected[k]);
      const auto new_run =
          new_closures[k].Cascade(new_worlds[k].ComponentOf(node));
      if (!SameCascade(old_run, new_run)) {
        node_changed[v] = 1;
        return;
      }
    }
  });
  std::vector<NodeId> changed;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (node_changed[v]) changed.push_back(v);
  }
  *changed_count = static_cast<uint32_t>(changed.size());
  if (changed.empty()) return std::optional<FlatSets>();

  // Per-node recompute matches the full sweep byte-for-byte: both run
  // NodeMedianSolver over the node's l cascade runs in world order, with
  // the options EnsureTypical sweeps with.
  std::vector<uint32_t> new_slot(num_worlds, UINT32_MAX);
  for (size_t k = 0; k < affected.size(); ++k) {
    new_slot[affected[k]] = static_cast<uint32_t>(k);
  }
  const TypicalCascadeOptions sweep_options;
  std::vector<std::vector<NodeId>> recomputed(changed.size());
  std::vector<Status> chunk_status(PlannedChunks(changed.size(), 1),
                                   Status::OK());
  ParallelForChunks(
      0, changed.size(), /*grain=*/1,
      [&](uint32_t chunk, uint64_t b, uint64_t e) {
        NodeMedianSolver solver(num_nodes, num_worlds, sweep_options.median);
        for (uint64_t j = b; j < e; ++j) {
          const NodeId v = changed[j];
          Result<MedianResult> median = solver.Solve([&](uint32_t i) {
            const uint32_t k = new_slot[i];
            return k == UINT32_MAX
                       ? index_.CachedCascade(v, i)
                       : new_closures[k].Cascade(new_worlds[k].ComponentOf(v));
          });
          if (!median.ok()) {
            chunk_status[chunk] = median.status();
            return;
          }
          recomputed[j] = std::move(median->median);
        }
      });
  for (const Status& status : chunk_status) {
    if (!status.ok()) return status;
  }
  FlatSets patched;
  size_t next = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (node_changed[v]) {
      patched.AddSet(recomputed[next++]);
    } else {
      patched.AddSet(typical_.Set(v));
    }
  }
  return std::optional<FlatSets>(std::move(patched));
}

UpdateStats DynamicIndex::CommitUpdates(PreparedUpdate* prepared) {
  SOI_CHECK(update_pending_);
  update_pending_ = false;
  WallTimer timer;
  UpdateStats stats = prepared->stats_;
  drift_ += stats.applied_ops;
  stats.drift = drift_;
  if (!prepared->affected_.empty()) {
    SOI_OBS_SPAN("dynamic/commit_updates");
    using CacheFate = PreparedUpdate::CacheFate;
    if (prepared->cache_ == CacheFate::kDrop) index_.DropClosureCache();
    for (size_t k = 0; k < prepared->affected_.size(); ++k) {
      const uint32_t i = prepared->affected_[k];
      prepared->worlds_[k] =
          index_.ReplaceWorld(i, std::move(prepared->worlds_[k]));
      if (prepared->cache_ == CacheFate::kPatch) {
        prepared->closures_[k] =
            index_.SetClosure(i, std::move(prepared->closures_[k]));
      }
    }
    if (prepared->cache_ == CacheFate::kRebuildTiers) {
      index_.RebuildClosureTiers(options_.closure_budget_mb,
                                 options_.tier_policy);
    }
    index_.RecomputeStats();

    if (typical_ready_) {
      if (!prepared->had_typical_ ||
          prepared->cache_ != CacheFate::kPatch) {
        // Materialized after the prepare looked, or unpatchable: drop it
        // for the next EnsureTypical to re-sweep on the new index.
        typical_ready_ = false;
        prepared->typical_ = std::move(typical_);
        typical_ = FlatSets();
        stats.affected_nodes = index_.num_nodes();
      } else if (prepared->typical_.has_value()) {
        std::swap(typical_, *prepared->typical_);
      }
    }
  }
  stats.seconds += timer.ElapsedSeconds();
  return stats;
}

Status DynamicIndex::EnsureTypical() {
  if (typical_ready_) return Status::OK();
  SOI_OBS_SPAN("dynamic/ensure_typical");
  TypicalCascadeComputer computer(&index_);
  SOI_ASSIGN_OR_RETURN(TypicalCascadeSweep sweep, computer.ComputeAllFlat());
  typical_ = std::move(sweep.cascades);
  typical_ready_ = true;
  return Status::OK();
}

}  // namespace soi
