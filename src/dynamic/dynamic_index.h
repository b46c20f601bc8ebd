#ifndef SOI_DYNAMIC_DYNAMIC_INDEX_H_
#define SOI_DYNAMIC_DYNAMIC_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/keyed_sampler.h"
#include "index/cascade_index.h"
#include "util/flat_sets.h"
#include "util/status.h"

namespace soi {

/// Per-batch maintenance report.
struct UpdateStats {
  /// Updates applied (== the batch size on success).
  uint32_t applied_ops = 0;
  /// Worlds whose live-edge set changed and were re-derived (sample →
  /// SCC → reduction → closure). The complement was left byte-untouched.
  uint32_t affected_worlds = 0;
  /// Typical-cascade table entries recomputed (0 when the table is not
  /// materialized).
  uint32_t affected_nodes = 0;
  /// Cumulative applied updates since Build (the staleness signal the
  /// service layer's drift-rebuild policy thresholds on).
  uint64_t drift = 0;
  double seconds = 0.0;
};

/// A batch DynamicIndex::PrepareUpdates has validated, applied to the graph
/// and re-derived, waiting for CommitUpdates to move it into the served
/// index. Opaque: only the DynamicIndex that prepared it may commit it.
class PreparedUpdate {
 public:
  PreparedUpdate() = default;
  PreparedUpdate(PreparedUpdate&&) noexcept = default;
  PreparedUpdate& operator=(PreparedUpdate&&) noexcept = default;

 private:
  friend class DynamicIndex;

  // What the commit does with the reachability cache (DESIGN §13.2).
  enum class CacheFate : uint8_t {
    kUntouched,     // no cache to maintain (pure traversal index)
    kPatch,         // SetClosure the affected worlds' new closures
    kDrop,          // over budget under the materialized policy
    kRebuildTiers,  // mixed-tier index, or over budget under a tiered policy
  };

  UpdateStats stats_;
  std::vector<uint32_t> affected_;     // sorted world ids
  // affected_[k]'s new condensation and (when kPatch) closure; after the
  // commit, the ones they replaced.
  std::vector<Condensation> worlds_;
  std::vector<ReachabilityClosure> closures_;
  CacheFate cache_ = CacheFate::kUntouched;
  // Typical table as of the prepare step: whether it was materialized, and
  // (when rows changed) the patched table; after the commit, the table it
  // replaced or dropped.
  bool had_typical_ = false;
  std::optional<FlatSets> typical_;
};

/// An incrementally maintained cascade index (DESIGN §13): the mutable
/// DynamicGraph, the CascadeIndex over its sampled worlds, and (lazily) the
/// typical-cascade table, kept consistent under EdgeInsert / EdgeDelete /
/// UpdateProb streams.
///
/// The maintenance contract is *exact rebuild equivalence*: after any
/// sequence of successful ApplyUpdates batches, the index (serialized
/// bytes) and every query answer are byte-identical to those of
/// `DynamicIndex::Build(materialized graph, same options, same seed)`.
/// This is possible because world sampling is keyed — every coin is a pure
/// function of (seed, world, edge identity), see dynamic/keyed_sampler.h —
/// so a batch only needs to re-derive the worlds whose touched-edge coins
/// actually flipped an edge's liveness; all other worlds are provably
/// bit-identical to what a fresh build would produce.
///
/// NOTE: keyed sampling draws a different coin sequence than the static
/// CascadeIndex::Build path (which consumes each world stream
/// sequentially), so a DynamicIndex and a static index built from the same
/// seed are different — equally valid — samples of the same distribution.
/// Parity claims are always dynamic-vs-dynamic.
///
/// Closure-cache policy under updates mirrors the build-time all-or-nothing
/// budget: affected worlds' closures are recomputed; if the patched total
/// would exceed the budget the whole cache is dropped (queries fall back to
/// traversal, byte-identical answers) and stays dropped until a full
/// rebuild. Rebuild equivalence is stated over the condensations
/// (Condensation::operator==, world by world), which the cache policy never
/// touches.
///
/// Thread-safety: an update is split into PrepareUpdates, which reads the
/// served index (and mutates only the graph), and CommitUpdates, which
/// moves the prepared state into it. Readers of index() may run
/// concurrently with a prepare but not with a commit; prepares and commits
/// must be serialized among themselves, and EnsureTypical must not overlap
/// a prepare that reads the table (see PrepareUpdates). service::Engine
/// does this with a writer mutex plus a shared_mutex (DESIGN §13.3);
/// standalone users can simply call ApplyUpdates from one thread.
class DynamicIndex {
 public:
  /// Samples `options.num_worlds` keyed worlds from `graph` and builds the
  /// index (LT instances are weight-validated first). `seed` plays the
  /// role of EngineOptions::seed: same graph + options + seed => same
  /// index, forever, updates included.
  static Result<DynamicIndex> Build(const ProbGraph& graph,
                                    const CascadeIndexOptions& options,
                                    uint64_t seed);

  /// Applies one batch atomically: PrepareUpdates, then CommitUpdates.
  /// Every update validates against the state left by its predecessors (an
  /// insert may re-weight-then-delete within one batch); on any error the
  /// graph is rolled back and the index left untouched. On success,
  /// re-derives exactly the affected worlds and patches the typical table
  /// (when materialized) for exactly the nodes whose cascades changed.
  Result<UpdateStats> ApplyUpdates(std::span<const GraphUpdate> updates);

  /// The expensive half of a batch, which never writes the served index:
  /// validates the batch and applies it to the graph, finds the affected
  /// worlds, re-derives their condensations and closures, and — when
  /// `patch_typical` — recomputes the typical-table rows of the nodes whose
  /// cascade changed. `patch_typical` must equal has_typical() as of a
  /// point after which no EnsureTypical runs until the commit; the caller
  /// reads it under whatever serializes it against EnsureTypical, which
  /// lets the prepare run alongside index() readers without reading
  /// typical state itself. On error, the graph is restored and nothing has
  /// changed. On success the graph is ahead of the index until the
  /// returned batch is committed, so CommitUpdates must follow before any
  /// other PrepareUpdates, MaterializeGraph or fingerprint call.
  Result<PreparedUpdate> PrepareUpdates(std::span<const GraphUpdate> updates,
                                        bool patch_typical);

  /// The cheap half: moves a prepared batch into the served index
  /// (ReplaceWorld / SetClosure, or the cache's drop or tier reassignment),
  /// recomputes stats, installs the patched typical table, and advances
  /// drift. Cannot fail. A typical table that was materialized after the
  /// prepare, or that could not be patched (no closure cache on both
  /// sides), is dropped instead; the next EnsureTypical re-sweeps it. The
  /// replaced worlds, closures and table are swapped into `*prepared`, so
  /// a caller committing under a lock frees them after unlocking.
  UpdateStats CommitUpdates(PreparedUpdate* prepared);

  const CascadeIndex& index() const { return index_; }
  const DynamicGraph& graph() const { return graph_; }
  const CascadeIndexOptions& options() const { return options_; }
  uint64_t seed() const { return seed_; }

  /// Applied updates since Build. The drift-rebuild policy (DESIGN §13.4)
  /// swaps in a freshly built engine when this crosses a threshold —
  /// semantically a no-op thanks to rebuild equivalence, operationally a
  /// compaction (arenas defragment, dropped closure caches come back).
  uint64_t drift() const { return drift_; }

  /// Immutable snapshot of the current graph (for rebuilds and snapshots).
  Result<ProbGraph> MaterializeGraph() const { return graph_.Materialize(); }

  /// Fingerprint of the current graph (matches GraphFingerprint of the
  /// materialized graph; the stale-snapshot guard).
  uint64_t fingerprint() const { return graph_.Fingerprint(); }

  /// Materializes the per-node typical-cascade table (Algorithm 2 sweep)
  /// if absent; later update batches patch it incrementally, or drop it
  /// when they cannot (see CommitUpdates). While present, the table equals
  /// TypicalCascadeComputer::ComputeAllFlat on the current index.
  Status EnsureTypical();
  bool has_typical() const { return typical_ready_; }
  const FlatSets& typical() const {
    SOI_CHECK(typical_ready_);
    return typical_;
  }

 private:
  DynamicIndex() = default;

  KeyedWorldSampler Sampler() const {
    return KeyedWorldSampler(&graph_, options_.model, seed_);
  }

  // Builds one world's condensation from the current graph (keyed sample →
  // SCC → optional transitive reduction). The single code path both Build
  // and ApplyUpdates use, which is what makes them agree byte-for-byte.
  Condensation DeriveWorld(const KeyedWorldSampler& sampler,
                           uint32_t i) const;

  // LT-only: incremental weight-budget check for an op (in-weights of the
  // target must stay <= 1).
  Status ValidateLtBudget(const GraphUpdate& update) const;

  // Phase 3 of PrepareUpdates on a fully materialized index: the typical
  // table with the rows of every node whose cascade changed in some
  // affected world recomputed against the new worlds (nullopt when no row
  // changed). Reads the current table and index; writes neither.
  Result<std::optional<FlatSets>> PatchTypical(
      std::span<const uint32_t> affected,
      std::span<const Condensation> new_worlds,
      std::span<const ReachabilityClosure> new_closures,
      uint32_t* changed_count) const;

  DynamicGraph graph_;
  CascadeIndexOptions options_;
  uint64_t seed_ = 0;
  CascadeIndex index_;
  uint64_t drift_ = 0;

  bool typical_ready_ = false;
  FlatSets typical_;  // node v -> typical cascade, when typical_ready_

  // A prepared batch has been applied to graph_ but not yet committed.
  bool update_pending_ = false;

  // Per-call scratch (world stamp marks for affected-set dedup).
  std::vector<uint32_t> world_mark_;
  uint32_t world_stamp_ = 0;
};

}  // namespace soi

#endif  // SOI_DYNAMIC_DYNAMIC_INDEX_H_
