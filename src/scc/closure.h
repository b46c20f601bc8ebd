#ifndef SOI_SCC_CLOSURE_H_
#define SOI_SCC_CLOSURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "scc/condensation.h"

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
/// Storage is dual-mode: a closure either owns its CSR arrays (the vectors
/// below, filled by BuildReachabilityClosure) or *borrows* them from an
/// external read-only mapping (see src/snapshot/) via Borrowed(). Queries go
/// through the accessors, which dispatch on the mode; owned and borrowed
/// closures answer identically. Copies and moves are safe in both modes: an
/// owned copy never reads the view spans, and a borrowed copy shares the
/// external memory (whose lifetime the snapshot mapping owns).
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
    out.borrowed_ = true;
    out.b_comp_offsets_ = comp_offsets;
    out.b_comps_ = comps;
    out.b_node_offsets_ = node_offsets;
    out.b_nodes_ = nodes;
    return out;
  }

  bool borrowed() const { return borrowed_; }

  uint32_t num_components() const {
    const auto co = comp_offsets_view();
    return co.empty() ? 0 : static_cast<uint32_t>(co.size() - 1);
  }

  /// Components reachable from c (ascending, includes c).
  std::span<const uint32_t> Closure(uint32_t c) const {
    const auto co = comp_offsets_view();
    const auto cs = comps_view();
    SOI_DCHECK(c + 1 < co.size());
    return std::span<const uint32_t>(cs.data() + co[c], cs.data() + co[c + 1]);
  }

  /// Cascade of any node in component c (ascending node ids).
  std::span<const NodeId> Cascade(uint32_t c) const {
    const auto no = node_offsets_view();
    const auto ns = nodes_view();
    SOI_DCHECK(c + 1 < no.size());
    return std::span<const NodeId>(ns.data() + no[c], ns.data() + no[c + 1]);
  }

  /// Cascade size of any node in component c. Fits uint32: a cascade never
  /// exceeds the node count.
  uint32_t NodeCount(uint32_t c) const {
    const auto no = node_offsets_view();
    SOI_DCHECK(c + 1 < no.size());
    return static_cast<uint32_t>(no[c + 1] - no[c]);
  }

  /// Heap footprint of the CSR arrays (the quantity the index's
  /// closure-cache memory budget meters). For a borrowed closure this is the
  /// mapped footprint — the same bytes, just owned by the page cache.
  uint64_t ApproxBytes() const {
    return 8ull * comp_offsets_view().size() + 4ull * comps_view().size() +
           8ull * node_offsets_view().size() + 4ull * nodes_view().size();
  }

  /// The four CSR arrays as spans, mode-independent (what the snapshot
  /// writer serializes).
  std::span<const uint64_t> comp_offsets_view() const {
    return borrowed_ ? b_comp_offsets_
                     : std::span<const uint64_t>(comp_offsets);
  }
  std::span<const uint32_t> comps_view() const {
    return borrowed_ ? b_comps_ : std::span<const uint32_t>(comps);
  }
  std::span<const uint64_t> node_offsets_view() const {
    return borrowed_ ? b_node_offsets_
                     : std::span<const uint64_t>(node_offsets);
  }
  std::span<const NodeId> nodes_view() const {
    return borrowed_ ? b_nodes_ : std::span<const NodeId>(nodes);
  }

 private:
  bool borrowed_ = false;
  std::span<const uint64_t> b_comp_offsets_;
  std::span<const uint32_t> b_comps_;
  std::span<const uint64_t> b_node_offsets_;
  std::span<const NodeId> b_nodes_;
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
