#ifndef SOI_UTIL_FLAT_SETS_H_
#define SOI_UTIL_FLAT_SETS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/packed_runs.h"

namespace soi {

/// A CSR-style arena for a sequence of small integer sets: one contiguous
/// element array plus exclusive end offsets. This is the storage every
/// greedy max-cover path shares (typical cascades, RR sets, their inverted
/// indexes): set i is a span into the arena, so iterating a set costs no
/// pointer chase into a per-set heap allocation and a whole collection is
/// two allocations instead of one per set.
///
/// Sets are append-only and identified by insertion order. Elements are
/// uint32 ids (node ids or set ids, depending on direction). Spans returned
/// by Set() are invalidated by any further append/Clear.
///
/// Storage modes:
///  - raw (default): one uint32 element array + uint64 offsets; Set(i) is a
///    zero-cost span. Borrowed() wraps external raw arrays (snapshot
///    mappings) with zero copy.
///  - packed: the elements live delta-varint encoded (util/packed_runs.h),
///    ~1 byte/element for dense sorted runs instead of 4. Requires every
///    set to be strictly ascending — which all the arenas named above are
///    by construction. Set(i) is unavailable; consumers stream via
///    ForEach() or decode with AppendSetTo(). BorrowedPacked()
///    wraps packed snapshot sections with zero copy.
/// num_sets/SetSize/total_elements and the append mutators work in either
/// mode, so cover engines and sweeps consume both encodings transparently.
class FlatSets {
 public:
  FlatSets() : offsets_(1, 0) {}

  /// Wraps pre-built arena arrays without copying. `offsets` must be
  /// non-empty with offsets[0] == 0 and offsets.back() == elements.size();
  /// the spans must outlive the FlatSets. The loader validates structure
  /// before assembling (snapshot/reader.h).
  static FlatSets Borrowed(std::span<const uint32_t> elements,
                           std::span<const uint64_t> offsets) {
    FlatSets out;
    out.borrowed_ = true;
    out.offsets_.clear();
    out.b_elems_ = elements;
    out.b_offsets_ = offsets;
    return out;
  }

  /// Wraps pre-built PACKED arrays without copying (packed snapshot
  /// sections). Offset spans are as in PackedRuns::Borrowed; the loader
  /// validates the encoded runs before assembling.
  static FlatSets BorrowedPacked(std::span<const uint8_t> bytes,
                                 std::span<const uint64_t> byte_offsets,
                                 std::span<const uint64_t> elem_offsets) {
    FlatSets out;
    out.packed_ = true;
    out.offsets_.clear();
    out.runs_ = PackedRuns::Borrowed(bytes, byte_offsets, elem_offsets);
    return out;
  }

  /// Re-encodes `src` (any mode) into an owned packed arena. Every set must
  /// be strictly ascending.
  static FlatSets Pack(const FlatSets& src) {
    FlatSets out;
    out.packed_ = true;
    out.offsets_.clear();
    if (src.packed_) {
      // Same encoding: one splice instead of a decode/re-encode round trip.
      out.runs_ = PackedRuns();
      out.AppendPacked(src);
      return out;
    }
    for (size_t i = 0; i < src.num_sets(); ++i) out.runs_.AddRun(src.Set(i));
    return out;
  }

  /// Decodes `src` (any mode) into an owned raw arena.
  static FlatSets Unpack(const FlatSets& src) {
    FlatSets out;
    out.Reserve(src.num_sets(), src.total_elements());
    for (size_t i = 0; i < src.num_sets(); ++i) {
      if (src.packed_) {
        src.runs_.AppendRun(i, &out.elems_);
        out.offsets_.push_back(out.elems_.size());
      } else {
        out.AddSet(src.Set(i));
      }
    }
    return out;
  }

  bool borrowed() const { return packed_ ? runs_.borrowed() : borrowed_; }
  bool packed() const { return packed_; }

  void Clear() {
    SOI_DCHECK(!borrowed());
    elems_.clear();
    offsets_.assign(1, 0);
    if (packed_) runs_ = PackedRuns();
  }

  void Reserve(size_t num_sets, size_t num_elements) {
    SOI_DCHECK(!borrowed() && !packed_);
    offsets_.reserve(num_sets + 1);
    elems_.reserve(num_elements);
  }

  size_t num_sets() const { return offsets().size() - 1; }
  uint64_t total_elements() const { return offsets().back(); }

  /// Raw-mode span access. Packed sets have no contiguous uint32 storage —
  /// use ForEach()/AppendSetTo() there.
  std::span<const uint32_t> Set(size_t i) const {
    SOI_DCHECK(!packed_);
    const auto off = offsets();
    const auto el = elements();
    SOI_DCHECK(i + 1 < off.size());
    return {el.data() + off[i], el.data() + off[i + 1]};
  }

  uint64_t SetSize(size_t i) const {
    const auto off = offsets();
    SOI_DCHECK(i + 1 < off.size());
    return off[i + 1] - off[i];
  }

  /// Calls fn(element) for every element of set i in order, whatever the
  /// encoding — the one consumption idiom that is mode-transparent. The
  /// raw branch compiles down to the plain span loop.
  template <typename Fn>
  void ForEach(size_t i, Fn&& fn) const {
    if (!packed_) {
      for (uint32_t e : Set(i)) fn(e);
      return;
    }
    runs_.ForEach(i, fn);
  }

  /// Appends set i, decoded if necessary, to *out.
  void AppendSetTo(size_t i, std::vector<uint32_t>* out) const {
    if (packed_) {
      runs_.AppendRun(i, out);
    } else {
      const auto s = Set(i);
      out->insert(out->end(), s.begin(), s.end());
    }
  }

  /// Appends one complete set. In packed mode the set must be strictly
  /// ascending (delta-varint precondition).
  void AddSet(std::span<const uint32_t> elements) {
    SOI_DCHECK(!borrowed());
    if (packed_) {
      runs_.AddRun(elements);
    } else {
      elems_.insert(elems_.end(), elements.begin(), elements.end());
      offsets_.push_back(elems_.size());
    }
  }

  /// In-place append: push elements directly onto the arena tail (e.g. from
  /// a traversal kernel), then SealSet() to end the current set. The tail
  /// [offsets_.back(), elems_.size()) is the open set under construction.
  /// Raw mode only (packed runs are encoded whole).
  std::vector<uint32_t>& MutableElements() {
    SOI_DCHECK(!borrowed_ && !packed_);
    return elems_;
  }
  void SealSet() {
    SOI_DCHECK(!borrowed_ && !packed_);
    offsets_.push_back(elems_.size());
  }

  /// Appends every set of `other`, preserving order. Works across modes;
  /// same-mode appends splice arenas without re-encoding.
  void Append(const FlatSets& other) {
    SOI_DCHECK(!borrowed());
    if (packed_) {
      if (other.packed_) {
        AppendPacked(other);
      } else {
        for (size_t i = 0; i < other.num_sets(); ++i) {
          runs_.AddRun(other.Set(i));
        }
      }
      return;
    }
    if (other.packed_) {
      offsets_.reserve(offsets_.size() + other.num_sets());
      for (size_t i = 0; i < other.num_sets(); ++i) {
        other.runs_.AppendRun(i, &elems_);
        offsets_.push_back(elems_.size());
      }
      return;
    }
    const auto oel = other.elements();
    const auto ooff = other.offsets();
    const uint64_t base = elems_.size();
    elems_.insert(elems_.end(), oel.begin(), oel.end());
    offsets_.reserve(offsets_.size() + other.num_sets());
    for (size_t i = 1; i < ooff.size(); ++i) {
      offsets_.push_back(base + ooff[i]);
    }
  }

  /// One-allocation conversion from the nested representation.
  static FlatSets FromNested(const std::vector<std::vector<uint32_t>>& sets) {
    FlatSets out;
    uint64_t total = 0;
    for (const auto& s : sets) total += s.size();
    out.Reserve(sets.size(), total);
    for (const auto& s : sets) out.AddSet(s);
    return out;
  }

  /// The transposed incidence: output set e lists, in ascending order, the
  /// ids of every input set containing element e (counting sort,
  /// O(total_elements)). `num_elements` is the element universe size; every
  /// stored element must be < num_elements, and num_sets() must fit uint32.
  /// The output is always raw — it is the random-access side of the
  /// forward/inverted pair, consumed in the cover engine's hottest loop.
  FlatSets Transpose(uint32_t num_elements) const {
    SOI_CHECK(num_sets() <= ~uint32_t{0});
    SOI_CHECK(total_elements() <= ~uint32_t{0});
    FlatSets out;
    // Count + scatter with uint32 cursors: the per-element tables stay half
    // the size of the uint64 offsets, which keeps this (the cover engine's
    // build cost) cache-resident for typical universes.
    std::vector<uint32_t> cursor(num_elements, 0);
    const size_t n = num_sets();
    for (size_t i = 0; i < n; ++i) {
      ForEach(i, [&](uint32_t e) {
        SOI_DCHECK(e < num_elements);
        ++cursor[e];
      });
    }
    out.offsets_.resize(num_elements + 1);
    uint64_t running = 0;
    for (uint32_t e = 0; e < num_elements; ++e) {
      out.offsets_[e] = running;
      running += cursor[e];
      cursor[e] = static_cast<uint32_t>(out.offsets_[e]);
    }
    out.offsets_[num_elements] = running;
    out.elems_.resize(total_elements());
    uint32_t* out_elems = out.elems_.data();
    for (size_t i = 0; i < n; ++i) {
      ForEach(i, [&](uint32_t e) {
        out_elems[cursor[e]++] = static_cast<uint32_t>(i);
      });
    }
    return out;
  }

  /// Heap/mapped footprint of the arena (whichever encoding is live).
  uint64_t ApproxBytes() const {
    if (packed_) return runs_.ApproxBytes();
    return 4ull * elements().size() + 8ull * offsets().size();
  }

  std::span<const uint32_t> elements() const {
    SOI_DCHECK(!packed_);
    return borrowed_ ? b_elems_ : std::span<const uint32_t>(elems_);
  }
  std::span<const uint64_t> offsets() const {
    if (packed_) return runs_.elem_offsets();
    return borrowed_ ? b_offsets_ : std::span<const uint64_t>(offsets_);
  }

  /// The packed arena (packed mode only) — what the snapshot writer stages.
  const PackedRuns& packed_runs() const {
    SOI_DCHECK(packed_);
    return runs_;
  }

  /// Logical equality: same sets with the same contents, regardless of
  /// encoding. Same-mode compares are memcmp-fast (the delta-varint
  /// encoding is canonical, so equal packed contents mean equal bytes).
  bool operator==(const FlatSets& other) const {
    const auto off = offsets(), ooff = other.offsets();
    if (off.size() != ooff.size() ||
        !std::equal(off.begin(), off.end(), ooff.begin())) {
      return false;
    }
    if (packed_ == other.packed_) {
      if (packed_) {
        const auto b = runs_.bytes(), ob = other.runs_.bytes();
        return b.size() == ob.size() &&
               std::equal(b.begin(), b.end(), ob.begin());
      }
      const auto el = elements(), oel = other.elements();
      return std::equal(el.begin(), el.end(), oel.begin());
    }
    const FlatSets& packed = packed_ ? *this : other;
    const FlatSets& raw = packed_ ? other : *this;
    bool equal = true;
    for (size_t i = 0; i < raw.num_sets() && equal; ++i) {
      const uint32_t* e = raw.Set(i).data();  // same size: offsets are equal
      packed.runs_.ForEach(i, [&](uint32_t v) { equal &= v == *e++; });
    }
    return equal;
  }

 private:
  // Splices another packed arena onto this one byte-for-byte.
  void AppendPacked(const FlatSets& other) { runs_.Append(other.runs_); }

  std::vector<uint32_t> elems_;
  std::vector<uint64_t> offsets_;  // offsets_[0] == 0; exclusive set ends

  bool borrowed_ = false;
  std::span<const uint32_t> b_elems_;
  std::span<const uint64_t> b_offsets_;

  bool packed_ = false;
  PackedRuns runs_;  // element storage when packed_ (offsets_ unused)
};

}  // namespace soi

#endif  // SOI_UTIL_FLAT_SETS_H_
