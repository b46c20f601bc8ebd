#ifndef SOI_SCC_CLOSURE_H_
#define SOI_SCC_CLOSURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "scc/condensation.h"
#include "util/packed_runs.h"

namespace soi {

/// Reachability closure of a condensation DAG: for every component c, the
/// full set of components reachable from c (including c itself) as a CSR of
/// ascending component-id lists, plus the *materialized cascade run* — the
/// ascending node ids of those components' members, i.e. the exact cascade
/// of any node in c.
///
/// This is the "share reachability across sources" idea of Cohen et al.
/// (sketch-based influence oracles) applied exactly: the condensation
/// invariant that every DAG edge (c, c') has c' < c makes increasing
/// component id a reverse topological order (see scc/condensation.h), so one
/// ascending pass computes every closure as
///
///   closure(c) = {c} ∪ closure(s_1) ∪ ... ∪ closure(s_k),   s_i = succ(c),
///
/// with all successor closures already final. Each component's runs are
/// built once, at build time, from its largest child's finished runs: only
/// the components the other children add are gathered and merged in —
/// after which a single-source cascade query is a span into the runs CSR
/// (no traversal, no sort, no copy), a cascade size is a subtraction of two
/// offsets, and a multi-source cascade is a stamped union of closure lists
/// followed by one run merge.
///
/// Storage has three modes. A closure either owns its CSR arrays (the
/// vectors below, filled by BuildReachabilityClosure), *borrows* them raw
/// from an external read-only mapping via Borrowed(), or borrows them
/// *packed* via BorrowedPacked(): delta-varint runs (util/packed_runs.h)
/// addressed by per-component byte offsets, decoded per query (the packed
/// snapshot sections, see src/snapshot/). NodeCount, ForEachClosureComp
/// and AppendCascade answer identically in every mode; the span accessors
/// Closure()/Cascade() exist only for owned and raw-borrowed storage (the
/// build path, the dynamic layer and CascadeIndex::CachedCascade). Copies
/// and moves are safe in every mode: an owned copy never reads the view
/// spans, and a borrowed copy shares the external memory (whose lifetime
/// the snapshot mapping owns).
struct ReachabilityClosure {
  /// comps[comp_offsets[c], comp_offsets[c+1]) is the closure of component
  /// c, component ids strictly ascending. 64-bit offsets: total closure
  /// length is quadratic in the worst case and routinely exceeds 32 bits
  /// before the memory budget does. Owned storage; empty in borrowed mode.
  std::vector<uint64_t> comp_offsets;
  std::vector<uint32_t> comps;
  /// nodes[node_offsets[c], node_offsets[c+1]) is the cascade run of
  /// component c: the members of its closure, node ids strictly ascending.
  std::vector<uint64_t> node_offsets;
  std::vector<NodeId> nodes;

  /// Wraps spans into an external mapping (e.g. an mmap'd snapshot section)
  /// without copying. The spans must stay valid for the closure's lifetime;
  /// structural validity (monotonic offsets, in-range ids) is the loader's
  /// responsibility (snapshot/reader.h validates before assembling).
  static ReachabilityClosure Borrowed(std::span<const uint64_t> comp_offsets,
                                      std::span<const uint32_t> comps,
                                      std::span<const uint64_t> node_offsets,
                                      std::span<const NodeId> nodes) {
    ReachabilityClosure out;
    out.storage_ = Storage::kBorrowed;
    out.b_comp_offsets_ = comp_offsets;
    out.b_comps_ = comps;
    out.b_node_offsets_ = node_offsets;
    out.b_nodes_ = nodes;
    return out;
  }

  /// Wraps packed runs without copying or decoding: `comps` holds one run
  /// per component (its closure), `nodes` one run per component (its
  /// cascade). Both arenas' spans must stay valid for the closure's
  /// lifetime, and every run must have passed ValidatePackedRun against
  /// the component / node count — the loader's responsibility, as for
  /// Borrowed().
  static ReachabilityClosure BorrowedPacked(const PackedRuns& comps,
                                            const PackedRuns& nodes) {
    SOI_DCHECK(comps.num_runs() == nodes.num_runs());
    ReachabilityClosure out;
    out.storage_ = Storage::kPacked;
    out.b_comp_offsets_ = comps.elem_offsets();
    out.b_node_offsets_ = nodes.elem_offsets();
    out.p_comps_ = comps.bytes();
    out.p_comp_bytes_ = comps.byte_offsets();
    out.p_nodes_ = nodes.bytes();
    out.p_node_bytes_ = nodes.byte_offsets();
    return out;
  }

  /// True for both borrowed modes (raw and packed).
  bool borrowed() const { return storage_ != Storage::kOwned; }
  /// True when the runs are delta-varint packed (no span accessors).
  bool packed() const { return storage_ == Storage::kPacked; }

  uint32_t num_components() const {
    const auto co = comp_offsets_view();
    return co.empty() ? 0 : static_cast<uint32_t>(co.size() - 1);
  }

  /// Cascade size of any node in component c, O(1) in every mode. Fits
  /// uint32: a cascade never exceeds the node count.
  uint32_t NodeCount(uint32_t c) const {
    const auto no = node_offsets_view();
    SOI_DCHECK(c + 1 < no.size());
    return static_cast<uint32_t>(no[c + 1] - no[c]);
  }

  /// Calls fn(x) for every component x reachable from c (ascending,
  /// includes c), in every storage mode.
  template <typename Fn>
  void ForEachClosureComp(uint32_t c, Fn&& fn) const {
    if (packed()) {
      const auto co = comp_offsets_view();
      SOI_DCHECK(c + 1 < co.size());
      ForEachPacked(p_comps_.data() + p_comp_bytes_[c], co[c + 1] - co[c], fn);
      return;
    }
    for (uint32_t x : Closure(c)) fn(x);
  }

  /// Appends the cascade of any node in component c (ascending node ids) to
  /// *out, in every storage mode.
  void AppendCascade(uint32_t c, std::vector<NodeId>* out) const {
    if (packed()) {
      const size_t base = out->size();
      out->resize(base + NodeCount(c));
      DecodePackedRun(p_nodes_.data() + p_node_bytes_[c], NodeCount(c),
                      out->data() + base);
      return;
    }
    const auto run = Cascade(c);
    out->insert(out->end(), run.begin(), run.end());
  }

  /// Components reachable from c (ascending, includes c). Owned and
  /// raw-borrowed storage only.
  std::span<const uint32_t> Closure(uint32_t c) const {
    SOI_DCHECK(!packed());
    const auto co = comp_offsets_view();
    const auto cs = borrowed() ? b_comps_ : std::span<const uint32_t>(comps);
    SOI_DCHECK(c + 1 < co.size());
    return std::span<const uint32_t>(cs.data() + co[c], cs.data() + co[c + 1]);
  }

  /// Cascade of any node in component c (ascending node ids). Owned and
  /// raw-borrowed storage only.
  std::span<const NodeId> Cascade(uint32_t c) const {
    SOI_DCHECK(!packed());
    const auto no = node_offsets_view();
    const auto ns = borrowed() ? b_nodes_ : std::span<const NodeId>(nodes);
    SOI_DCHECK(c + 1 < no.size());
    return std::span<const NodeId>(ns.data() + no[c], ns.data() + no[c + 1]);
  }

  /// Size of the CSR arrays in their raw form (the quantity the index's
  /// closure-cache memory budget meters), in every mode: a closure loaded
  /// from a snapshot reports the bytes it was built with. For a borrowed
  /// closure the bytes live in the mapping, not on the heap.
  uint64_t ApproxBytes() const {
    const auto co = comp_offsets_view();
    const auto no = node_offsets_view();
    if (co.empty()) return 0;
    return 8ull * co.size() + 4ull * co.back() + 8ull * no.size() +
           4ull * no.back();
  }

  /// The element-offset arrays as spans, in every mode (a packed closure's
  /// offsets are its runs' element offsets).
  std::span<const uint64_t> comp_offsets_view() const {
    return borrowed() ? b_comp_offsets_
                      : std::span<const uint64_t>(comp_offsets);
  }
  std::span<const uint64_t> node_offsets_view() const {
    return borrowed() ? b_node_offsets_
                      : std::span<const uint64_t>(node_offsets);
  }

 private:
  enum class Storage : uint8_t { kOwned, kBorrowed, kPacked };
  Storage storage_ = Storage::kOwned;
  // Element offsets (raw-borrowed and packed modes).
  std::span<const uint64_t> b_comp_offsets_;
  std::span<const uint64_t> b_node_offsets_;
  // Runs, raw-borrowed mode.
  std::span<const uint32_t> b_comps_;
  std::span<const NodeId> b_nodes_;
  // Runs and per-component byte offsets, packed mode.
  std::span<const uint8_t> p_comps_;
  std::span<const uint64_t> p_comp_bytes_;
  std::span<const uint8_t> p_nodes_;
  std::span<const uint64_t> p_node_bytes_;
};

/// Reusable scratch for MergeComponentMemberRuns (ping-pong buffers + run
/// bounds); caller-owned to amortize allocations across queries.
struct RunMergeScratch {
  std::vector<NodeId> a, b;
  std::vector<size_t> bounds_a, bounds_b;
};

/// Appends the ascending union of the member runs of `comps` (distinct,
/// ascending component ids — their member runs are disjoint and pre-sorted)
/// to *out. O(S log k) for S output nodes and k runs, vs O(S log S) for
/// gather + sort.
void MergeComponentMemberRuns(const Condensation& cond,
                              std::span<const uint32_t> comps,
                              RunMergeScratch* scratch,
                              std::vector<NodeId>* out);

/// Builds the full reachability closure of `cond` in one ascending
/// (reverse-topological) pass. Deterministic: depends only on the DAG.
///
/// Component c reuses the finished runs of its child b with the longest
/// cascade run: the components reached through c's other children but not
/// through b (found by stamping closure(b)) plus c itself are the "extras",
/// and
///
///   comps(c) = merge(closure(b), sorted extras)
///   nodes(c) = merge(cascade(b), merged member runs of the extras),
///
/// so a single-child component costs one 2-way merge, no stamping and no
/// sort. The output is the same as gathering and sorting the whole closure.
/// The returned arrays are sized exactly (no growth slack).
///
/// `max_total_nodes` caps the total materialized run length (the dominant
/// memory term; the component lists it bounds are never longer); when the
/// cap would be exceeded the build stops and returns an empty closure
/// (num_components() == 0) so callers can fall back to per-query traversal.
/// Pass UINT64_MAX for an unbounded build.
ReachabilityClosure BuildReachabilityClosure(const Condensation& cond,
                                             uint64_t max_total_nodes);

}  // namespace soi

#endif  // SOI_SCC_CLOSURE_H_
