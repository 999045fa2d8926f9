#include "apps/adpcm.h"

#include <algorithm>

#include "base/status.h"

namespace vcop::apps {
namespace {

// Standard IMA ADPCM tables (Intel/DVI).
constexpr i8 kIndexTable[16] = {
    -1, -1, -1, -1, 2, 4, 6, 8,
    -1, -1, -1, -1, 2, 4, 6, 8,
};

constexpr i16 kStepSizeTable[kAdpcmMaxIndex + 1] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

i32 ClampSample(i32 v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return v;
}

/// The decoder's whole transition as two lookups per (index, code):
/// the signed difference step*code/4 + step/8, computed with shifts
/// exactly as the reference coder does, and the clamped next index.
/// Looking both up takes the four data-dependent branches on the code
/// bits off the per-sample path.
struct AdpcmStepTable {
  i32 diff[kAdpcmMaxIndex + 1][16];
  u8 next[kAdpcmMaxIndex + 1][16];
};

constexpr AdpcmStepTable BuildStepTable() {
  AdpcmStepTable t{};
  for (i32 index = 0; index <= kAdpcmMaxIndex; ++index) {
    const i32 step = kStepSizeTable[index];
    for (i32 code = 0; code < 16; ++code) {
      i32 diff = step >> 3;
      if (code & 4) diff += step;
      if (code & 2) diff += step >> 1;
      if (code & 1) diff += step >> 2;
      t.diff[index][code] = (code & 8) ? -diff : diff;
      t.next[index][code] = static_cast<u8>(
          std::clamp(index + kIndexTable[code], 0, i32{kAdpcmMaxIndex}));
    }
  }
  return t;
}

constexpr AdpcmStepTable kStepTable = BuildStepTable();

/// The index after both codes of an input byte (low nibble first), per
/// (byte, index): AdpcmDecode advances the index once per byte. The byte
/// picks the row off the serial chain, so the chain through the index is
/// one load per two samples, `row[index]`, with no arithmetic on it.
struct AdpcmByteIndexTable {
  u8 next[256][kAdpcmMaxIndex + 1];
};

constexpr AdpcmByteIndexTable BuildByteIndexTable() {
  AdpcmByteIndexTable t{};
  for (usize byte = 0; byte < 256; ++byte) {
    for (usize index = 0; index <= kAdpcmMaxIndex; ++index) {
      const u8 mid = kStepTable.next[index][byte & 0x0F];
      t.next[byte][index] = kStepTable.next[mid][byte >> 4];
    }
  }
  return t;
}

constexpr AdpcmByteIndexTable kByteIndexTable = BuildByteIndexTable();

}  // namespace

i16 AdpcmDecodeSample(u8 code, AdpcmState& state) {
  code &= 0x0F;
  state.valprev = static_cast<i16>(
      ClampSample(state.valprev + kStepTable.diff[state.index][code]));
  state.index = kStepTable.next[state.index][code];
  return state.valprev;
}

u8 AdpcmEncodeSample(i16 sample, AdpcmState& state) {
  const i32 step = kStepSizeTable[state.index];
  i32 diff = sample - state.valprev;
  u8 code = 0;
  if (diff < 0) {
    code = 8;
    diff = -diff;
  }

  // Quantise |diff| to 3 bits against the current step size.
  i32 tempstep = step;
  if (diff >= tempstep) {
    code |= 4;
    diff -= tempstep;
  }
  tempstep >>= 1;
  if (diff >= tempstep) {
    code |= 2;
    diff -= tempstep;
  }
  tempstep >>= 1;
  if (diff >= tempstep) {
    code |= 1;
  }

  // Update the predictor through the shared decode step so encoder and
  // decoder stay in lock-step.
  AdpcmDecodeSample(code, state);
  return code;
}

void AdpcmEncode(std::span<const i16> pcm, std::span<u8> out,
                 AdpcmState& state) {
  VCOP_CHECK_MSG(pcm.size() % 2 == 0, "ADPCM encodes samples in pairs");
  VCOP_CHECK_MSG(out.size() == pcm.size() / 2,
                 "ADPCM output must be half the sample count in bytes");
  VCOP_CHECK_MSG(state.index <= kAdpcmMaxIndex,
                 "ADPCM step index out of range");
  for (usize i = 0; i < pcm.size(); i += 2) {
    const u8 lo = AdpcmEncodeSample(pcm[i], state);
    const u8 hi = AdpcmEncodeSample(pcm[i + 1], state);
    out[i / 2] = static_cast<u8>(lo | (hi << 4));
  }
}

void AdpcmDecode(std::span<const u8> in, std::span<i16> out,
                 AdpcmState& state) {
  VCOP_CHECK_MSG(out.size() == in.size() * 2,
                 "ADPCM decode emits two samples per input byte");
  VCOP_CHECK_MSG(state.index <= kAdpcmMaxIndex,
                 "ADPCM step index out of range");
  // The predictor stays in locals: a store through the i16 `out` may
  // alias `state.valprev` and would force a reload per sample. Both
  // samples of a byte take their differences from kStepTable, as
  // AdpcmDecodeSample does, but the index crosses the whole byte in one
  // lookup: the high code's index (`mid`) branches off the serial chain
  // instead of lengthening it. The two differences are added unclamped;
  // while both sums fit i16 the clamps would not change them, and the
  // rare byte that saturates is redone clamp by clamp.
  i32 valprev = state.valprev;
  u8 index = state.index;
  for (usize i = 0; i < in.size(); ++i) {
    const u8 byte = in[i];
    const u8 lo = byte & 0x0F;
    const u8 hi = byte >> 4;
    const u8 mid = kStepTable.next[index][lo];
    const i32 diff_lo = kStepTable.diff[index][lo];
    const i32 diff_hi = kStepTable.diff[mid][hi];
    i32 first = valprev + diff_lo;
    i32 second = first + diff_hi;
    // Offset by 32768, an i16 sample is a u32 below 65536.
    if (((static_cast<u32>(first + 32768) |
          static_cast<u32>(second + 32768)) >> 16) != 0) {
      first = ClampSample(valprev + diff_lo);
      second = ClampSample(first + diff_hi);
    }
    out[2 * i] = static_cast<i16>(first);
    out[2 * i + 1] = static_cast<i16>(second);
    valprev = second;
    index = kByteIndexTable.next[byte][index];
  }
  state.valprev = static_cast<i16>(valprev);
  state.index = index;
}

}  // namespace vcop::apps
