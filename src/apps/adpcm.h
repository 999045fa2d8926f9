// IMA/DVI ADPCM codec — the paper's "common multimedia benchmark,
// adpcmdecode" (§4.1), from the MediaBench suite.
//
// ADPCM compresses 16-bit PCM audio to 4-bit codes; *decoding* therefore
// "produces 4 times the input data size" (§4.1) — the property that
// makes it a good interface-virtualisation stressor: a 2 KB input emits
// 8 KB of output, so input + output fit the 16 KB dual-port RAM only for
// the smallest size, and page faults appear from 4 KB inputs onward.
//
// This is the bit-exact reference implementation; the coprocessor FSM in
// src/cp/adpcm_cp.* must produce identical output.
#pragma once

#include <span>

#include "base/types.h"

namespace vcop::apps {

/// The largest step-size table index.
inline constexpr u8 kAdpcmMaxIndex = 88;

/// Predictor state carried across sample blocks.
struct AdpcmState {
  i16 valprev = 0;  // previous predicted output value
  u8 index = 0;     // index into the step-size table (0..kAdpcmMaxIndex)
};

/// Encodes `pcm.size()` 16-bit samples into 4-bit codes, two per output
/// byte (low nibble first, as in the MediaBench coder).
/// `out.size()` must be pcm.size()/2; pcm.size() must be even;
/// `state.index` must not exceed kAdpcmMaxIndex.
void AdpcmEncode(std::span<const i16> pcm, std::span<u8> out,
                 AdpcmState& state);

/// Decodes 4-bit codes (two per input byte, low nibble first) into
/// 16-bit samples. `out.size()` must be 2*in.size(); `state.index` must
/// not exceed kAdpcmMaxIndex.
void AdpcmDecode(std::span<const u8> in, std::span<i16> out,
                 AdpcmState& state);

/// Single-sample decode step, exposed so the coprocessor FSM, the
/// encoder and the reference share one transition function: consumes
/// the low 4 bits of `code`, updates `state` (whose index must not
/// exceed kAdpcmMaxIndex; the step keeps it there), returns the
/// reconstructed sample. Each step is two lookups in a table built at
/// compile time from the step-size and index tables.
i16 AdpcmDecodeSample(u8 code, AdpcmState& state);

/// Single-sample encode step (mirror of AdpcmDecodeSample).
u8 AdpcmEncodeSample(i16 sample, AdpcmState& state);

}  // namespace vcop::apps
