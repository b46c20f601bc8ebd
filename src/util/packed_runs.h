#ifndef SOI_UTIL_PACKED_RUNS_H_
#define SOI_UTIL_PACKED_RUNS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace soi {

/// Delta-varint encoding for strictly ascending uint32 runs — the compressed
/// sibling of the raw CSR arenas (util/flat_sets.h, scc/closure.h). A run
/// [v0, v1, ..., vk] is stored as
///
///   varint(v0), varint(v1 - v0 - 1), ..., varint(vk - v(k-1) - 1)
///
/// (LEB128, 7 bits per byte). Sorted member-id runs are dominated by small
/// gaps, so dense cascade runs land near 1 byte/element instead of 4 — the
/// encoding behind the packed snapshot sections and the packed FlatSets
/// mode. Runs are randomly addressable through a per-run byte offset
/// (PackedRuns keeps one per run); inside a run decoding is sequential,
/// with a fast path for the 1-byte varints that dominate dense runs.
///
/// Storage is dual-mode like every other arena in the tree: a
/// default-constructed PackedRuns owns its byte buffer and supports AddRun;
/// Borrowed() wraps spans into an external read-only mapping (snapshot
/// sections) with zero copy.

/// Appends the LEB128 encoding of `v` to `out`.
inline void AppendVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Appends the delta-varint encoding of a strictly ascending run.
void AppendPackedRun(std::span<const uint32_t> run, std::vector<uint8_t>* out);

/// The one decoder: calls fn(value) for each of the `count` elements of the
/// run encoded at `pos`, in order, and returns the read head past the run.
/// The caller supplies the element count (packed storage keeps element
/// offsets separately — e.g. the closure node_offsets pool — so counts are
/// never re-derived from the bytes). The bytes must have passed
/// ValidatePackedRun (snapshot Open() validates every stored run), so no
/// bound is checked here.
///
/// The running value starts at "-1" (UINT32_MAX), which makes the absolute
/// first element and the (gap - 1) deltas after it one formula:
/// value += delta + 1, modulo 2^32.
template <typename Fn>
const uint8_t* ForEachPacked(const uint8_t* pos, uint64_t count, Fn&& fn) {
  uint32_t value = ~uint32_t{0};
  for (uint64_t k = 0; k < count; ++k) {
    uint32_t delta = *pos++;
    if (delta >= 0x80) [[unlikely]] {
      delta &= 0x7F;
      uint32_t shift = 7;
      uint8_t byte;
      do {
        byte = *pos++;
        delta |= static_cast<uint32_t>(byte & 0x7F) << shift;
        shift += 7;
      } while (byte & 0x80);
    }
    value += delta + 1;
    fn(value);
  }
  return pos;
}

/// Decodes the `count`-element run at `pos` into out[0, count) (pre-sized
/// by the caller); returns the read head past the run.
inline const uint8_t* DecodePackedRun(const uint8_t* pos, uint64_t count,
                                      uint32_t* out) {
  return ForEachPacked(pos, count, [&out](uint32_t v) { *out++ = v; });
}

/// A CSR-style arena of packed runs: one byte buffer plus byte offsets and
/// element counts per run.
class PackedRuns {
 public:
  PackedRuns() : byte_offsets_(1, 0), elem_offsets_(1, 0) {}

  /// Wraps pre-built arrays without copying (snapshot load path). Both
  /// offset spans have num_runs + 1 entries, start at 0 and end at the
  /// byte/element totals; the loader validates before assembling.
  static PackedRuns Borrowed(std::span<const uint8_t> bytes,
                             std::span<const uint64_t> byte_offsets,
                             std::span<const uint64_t> elem_offsets) {
    PackedRuns out;
    out.borrowed_ = true;
    out.byte_offsets_.clear();
    out.elem_offsets_.clear();
    out.b_bytes_ = bytes;
    out.b_byte_offsets_ = byte_offsets;
    out.b_elem_offsets_ = elem_offsets;
    return out;
  }

  bool borrowed() const { return borrowed_; }

  size_t num_runs() const { return byte_offsets().size() - 1; }
  uint64_t total_elements() const { return elem_offsets().back(); }
  uint64_t total_bytes() const { return bytes().size(); }

  /// Splices every run of `other` onto this arena byte-for-byte — the
  /// delta-varint encoding is position-independent, so no re-encode.
  void Append(const PackedRuns& other) {
    SOI_DCHECK(!borrowed_);
    const uint64_t byte_base = byte_offsets_.back();
    const uint64_t elem_base = elem_offsets_.back();
    const auto ob = other.bytes();
    bytes_.insert(bytes_.end(), ob.begin(), ob.end());
    const auto obo = other.byte_offsets();
    const auto oeo = other.elem_offsets();
    byte_offsets_.reserve(byte_offsets_.size() + other.num_runs());
    elem_offsets_.reserve(elem_offsets_.size() + other.num_runs());
    for (size_t i = 1; i < obo.size(); ++i) {
      byte_offsets_.push_back(byte_base + obo[i]);
      elem_offsets_.push_back(elem_base + oeo[i]);
    }
  }

  /// Appends one strictly ascending run.
  void AddRun(std::span<const uint32_t> run) {
    SOI_DCHECK(!borrowed_);
    AppendPackedRun(run, &bytes_);
    byte_offsets_.push_back(bytes_.size());
    elem_offsets_.push_back(elem_offsets_.back() + run.size());
  }

  uint64_t RunLength(size_t i) const {
    const auto eo = elem_offsets();
    SOI_DCHECK(i + 1 < eo.size());
    return eo[i + 1] - eo[i];
  }

  /// Calls fn(element) for every element of run i, in order.
  template <typename Fn>
  void ForEach(size_t i, Fn&& fn) const {
    ForEachPacked(RunBytes(i), RunLength(i), fn);
  }

  /// Appends run i, decoded, to *out.
  void AppendRun(size_t i, std::vector<uint32_t>* out) const {
    const size_t base = out->size();
    out->resize(base + RunLength(i));
    DecodePackedRun(RunBytes(i), RunLength(i), out->data() + base);
  }

  /// Heap/mapped footprint of the arena.
  uint64_t ApproxBytes() const {
    return bytes().size() + 8ull * byte_offsets().size() +
           8ull * elem_offsets().size();
  }

  std::span<const uint8_t> bytes() const {
    return borrowed_ ? b_bytes_ : std::span<const uint8_t>(bytes_);
  }
  std::span<const uint64_t> byte_offsets() const {
    return borrowed_ ? b_byte_offsets_
                     : std::span<const uint64_t>(byte_offsets_);
  }
  std::span<const uint64_t> elem_offsets() const {
    return borrowed_ ? b_elem_offsets_
                     : std::span<const uint64_t>(elem_offsets_);
  }

 private:
  const uint8_t* RunBytes(size_t i) const {
    const auto bo = byte_offsets();
    SOI_DCHECK(i + 1 < bo.size());
    return bytes().data() + bo[i];
  }

  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> byte_offsets_;  // byte_offsets_[0] == 0
  std::vector<uint64_t> elem_offsets_;  // elem_offsets_[0] == 0

  bool borrowed_ = false;
  std::span<const uint8_t> b_bytes_;
  std::span<const uint64_t> b_byte_offsets_;
  std::span<const uint64_t> b_elem_offsets_;
};

/// Validates one encoded run without materializing it: every varint must be
/// well-formed and in-bounds, the byte extent must be consumed exactly, the
/// decoded values strictly ascending and < `id_bound`. This is what snapshot
/// validation runs over packed sections, so the query-time decoder
/// (ForEachPacked) can trust the bytes. Values strictly increase, so only
/// the last one is checked against `id_bound`; single-byte varints are
/// validated eight at a time.
bool ValidatePackedRun(std::span<const uint8_t> bytes, uint64_t elem_count,
                       uint64_t id_bound);

/// ValidatePackedRun for a run embedded at the head of a larger pool: the
/// run need not consume `bytes` exactly; on success *consumed is the run's
/// encoded length. Back-to-back runs (no per-run byte offsets stored)
/// validate by chaining prefixes.
bool ValidatePackedRunPrefix(std::span<const uint8_t> bytes,
                             uint64_t elem_count, uint64_t id_bound,
                             uint64_t* consumed);

}  // namespace soi

#endif  // SOI_UTIL_PACKED_RUNS_H_
