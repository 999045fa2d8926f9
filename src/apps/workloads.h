// Workload generators for the experiments.
//
// The paper drives both benchmarks "by simply changing the input data
// size" (§4.1). These helpers produce deterministic inputs of any size:
// audio-like PCM for the ADPCM pipeline and pseudo-random payloads for
// IDEA, both seeded so that every run of a bench binary sees identical
// data.
#pragma once

#include <vector>

#include "apps/idea.h"
#include "base/rng.h"
#include "base/types.h"

namespace vcop::apps {

/// `num_samples` of synthetic audio: a sum of two sine-ish waves plus
/// low-level noise, spanning most of the 16-bit range. Deterministic in
/// `seed`.
std::vector<i16> MakeAudioPcm(usize num_samples, u64 seed);

/// An ADPCM-encoded stream of `num_bytes` bytes (2*num_bytes samples of
/// synthetic audio, encoded with a fresh predictor). This is the input
/// the adpcmdecode experiments feed to software and coprocessor alike.
std::vector<u8> MakeAdpcmStream(usize num_bytes, u64 seed);

/// `num_bytes` of uniform pseudo-random payload (IDEA plaintext).
std::vector<u8> MakeRandomBytes(usize num_bytes, u64 seed);

/// A fixed, documented 128-bit IDEA benchmark key derived from `seed`.
IdeaKey MakeIdeaKey(u64 seed);

/// A gather stressor's inputs: out[i] = in[perm[i]].
struct GatherInput {
  std::vector<u32> in;
  std::vector<u32> perm;
};

/// `elements` uniform random words, then a Fisher-Yates shuffle of the
/// identity permutation, both drawn from one Rng seeded with `seed`.
GatherInput MakeRandomGather(u32 elements, u64 seed);

}  // namespace vcop::apps
