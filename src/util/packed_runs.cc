#include "util/packed_runs.h"

#include <bit>
#include <cstring>

namespace soi {

namespace {

constexpr uint64_t kHighBits = 0x8080808080808080ull;

// Sum of the eight bytes of `w`, each at most 0x7F: pairwise into 16-bit
// lanes (each <= 254), then one multiply folds the lanes into the top lane.
uint64_t ByteSum(uint64_t w) {
  w = (w & 0x00FF00FF00FF00FFull) + ((w >> 8) & 0x00FF00FF00FF00FFull);
  return (w * 0x0001000100010001ull) >> 48;
}

}  // namespace

void AppendPackedRun(std::span<const uint32_t> run,
                     std::vector<uint8_t>* out) {
  if (run.empty()) return;
  AppendVarint(run[0], out);
  for (size_t i = 1; i < run.size(); ++i) {
    SOI_DCHECK(run[i] > run[i - 1]);
    AppendVarint(run[i] - run[i - 1] - 1, out);
  }
}

bool ValidatePackedRunPrefix(std::span<const uint8_t> bytes,
                             uint64_t elem_count, uint64_t id_bound,
                             uint64_t* consumed) {
  // Every element takes at least one byte.
  if (elem_count > bytes.size()) return false;
  constexpr uint64_t kMaxValue = ~uint32_t{0};
  const uint8_t* pos = bytes.data();
  const uint8_t* const end = pos + bytes.size();
  // "-1": the first element is absolute, the rest are (gap - 1), so every
  // element is value += delta + 1 (ForEachPacked's formula, in 64 bits).
  // Values only grow, so the last one is the largest: the uint32 and
  // id_bound checks run once at the end. The multi-byte path checks the
  // uint32 range as it goes, which keeps the sum far from 64-bit overflow.
  uint64_t value = ~uint64_t{0};
  uint64_t left = elem_count;
  while (left > 0) {
    if constexpr (std::endian::native == std::endian::little) {
      if (left >= 8 && end - pos >= 8) {
        // The leading single-byte varints of the next eight bytes, at once.
        uint64_t w;
        std::memcpy(&w, pos, sizeof(w));
        const uint64_t high = w & kHighBits;
        const unsigned ones =
            high == 0 ? 8 : static_cast<unsigned>(std::countr_zero(high)) / 8;
        if (ones > 0) {
          if (ones < 8) w &= (uint64_t{1} << (8 * ones)) - 1;
          value += ByteSum(w) + ones;
          pos += ones;
          left -= ones;
          continue;
        }
      }
    }
    if (pos == end) return false;  // truncated
    uint64_t delta = *pos++;
    if (delta & 0x80) {
      delta &= 0x7F;
      uint32_t shift = 7;
      uint8_t byte;
      do {
        if (pos == end || shift > 28) return false;  // truncated / oversized
        byte = *pos++;
        delta |= static_cast<uint64_t>(byte & 0x7F) << shift;
        shift += 7;
      } while (byte & 0x80);
      if (delta > kMaxValue) return false;
      value += delta + 1;
      if (value > kMaxValue) return false;
    } else {
      value += delta + 1;
    }
    --left;
  }
  // Must stay uint32-representable (the decoder works in uint32) and inside
  // the caller's id universe.
  if (elem_count > 0 && (value > kMaxValue || value >= id_bound)) {
    return false;
  }
  *consumed = static_cast<uint64_t>(pos - bytes.data());
  return true;
}

bool ValidatePackedRun(std::span<const uint8_t> bytes, uint64_t elem_count,
                       uint64_t id_bound) {
  uint64_t consumed = 0;
  return ValidatePackedRunPrefix(bytes, elem_count, id_bound, &consumed) &&
         consumed == bytes.size();  // extent must be consumed exactly
}

}  // namespace soi
