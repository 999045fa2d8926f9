#include "apps/workloads.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "apps/adpcm.h"
#include "base/status.h"

namespace vcop::apps {

std::vector<i16> MakeAudioPcm(usize num_samples, u64 seed) {
  Rng rng(seed);
  std::vector<i16> pcm(num_samples);
  const double f1 = 2.0 * M_PI / 97.0;   // ~455 Hz at 44.1 kHz
  const double f2 = 2.0 * M_PI / 31.0;   // a brighter partial
  for (usize i = 0; i < num_samples; ++i) {
    const double t = static_cast<double>(i);
    const double wave = 9000.0 * std::sin(f1 * t) + 4000.0 * std::sin(f2 * t);
    const double noise = (rng.NextDouble() - 0.5) * 600.0;
    double v = wave + noise;
    if (v > 32767.0) v = 32767.0;
    if (v < -32768.0) v = -32768.0;
    pcm[i] = static_cast<i16>(v);
  }
  return pcm;
}

std::vector<u8> MakeAdpcmStream(usize num_bytes, u64 seed) {
  const std::vector<i16> pcm = MakeAudioPcm(num_bytes * 2, seed);
  std::vector<u8> stream(num_bytes);
  AdpcmState state;
  AdpcmEncode(pcm, stream, state);
  return stream;
}

std::vector<u8> MakeRandomBytes(usize num_bytes, u64 seed) {
  Rng rng(seed);
  std::vector<u8> bytes(num_bytes);
  for (u8& b : bytes) b = static_cast<u8>(rng.NextBelow(256));
  return bytes;
}

IdeaKey MakeIdeaKey(u64 seed) {
  Rng rng(seed ^ 0x1DEA1DEA1DEA1DEAULL);
  IdeaKey key{};
  for (u8& b : key) b = static_cast<u8>(rng.NextBelow(256));
  return key;
}

GatherInput MakeRandomGather(u32 elements, u64 seed) {
  Rng rng(seed);
  GatherInput g;
  g.in.resize(elements);
  for (u32& v : g.in) v = static_cast<u32>(rng.Next());
  g.perm.resize(elements);
  std::iota(g.perm.begin(), g.perm.end(), 0u);
  for (u32 i = elements; i > 1; --i) {
    std::swap(g.perm[i - 1], g.perm[rng.NextBelow(i)]);
  }
  return g;
}

}  // namespace vcop::apps
