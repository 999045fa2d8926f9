// Unit tests for the IMA ADPCM codec: structural properties, known
// step-table behaviour, encode/decode round-trip quality, and the
// single-sample transition function shared with the coprocessor FSM
// (checked against the MediaBench decoder's arithmetic, restated here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/adpcm.h"
#include "apps/workloads.h"

namespace vcop::apps {
namespace {

TEST(AdpcmTest, DecodeExpandsFourfold) {
  // The §4.1 property the experiments rely on: 4-bit codes become
  // 16-bit samples, so output bytes = 4x input bytes.
  const std::vector<u8> in(100, 0x11);
  std::vector<i16> out(200);
  AdpcmState state;
  AdpcmDecode(in, out, state);
  EXPECT_EQ(out.size() * sizeof(i16), in.size() * 4);
}

TEST(AdpcmTest, ZeroCodeStreamDecaysToSilence) {
  AdpcmState state;
  state.valprev = 1000;
  state.index = 20;
  // Code 0 adds only step>>3 and walks the index down.
  std::vector<i16> out(64);
  const std::vector<u8> in(32, 0x00);
  AdpcmDecode(in, out, state);
  EXPECT_EQ(state.index, 0u);
}

TEST(AdpcmTest, IndexStaysInTableBounds) {
  AdpcmState state;
  // Maximal codes push the index up; it must clamp at 88.
  for (int i = 0; i < 200; ++i) AdpcmDecodeSample(0x7, state);
  EXPECT_LE(state.index, 88u);
  for (int i = 0; i < 400; ++i) AdpcmDecodeSample(0x0, state);
  EXPECT_EQ(state.index, 0u);
}

TEST(AdpcmTest, OutputSaturatesAtInt16Limits) {
  AdpcmState state;
  i16 last = 0;
  for (int i = 0; i < 500; ++i) last = AdpcmDecodeSample(0x7, state);
  EXPECT_EQ(last, 32767);
  for (int i = 0; i < 1000; ++i) last = AdpcmDecodeSample(0xF, state);
  EXPECT_EQ(last, -32768);
}

TEST(AdpcmTest, SignBitNegatesDifference) {
  AdpcmState up;
  AdpcmState down;
  const i16 a = AdpcmDecodeSample(0x3, up);
  const i16 b = AdpcmDecodeSample(0xB, down);  // same magnitude, sign bit
  EXPECT_EQ(a, -b);
}

TEST(AdpcmTest, EncodeDecodeRoundTripTracksSignal) {
  // ADPCM is lossy; decoded audio must track the original within a
  // small RMS error relative to full scale.
  const std::vector<i16> pcm = MakeAudioPcm(4096, 77);
  std::vector<u8> coded(2048);
  AdpcmState enc_state;
  AdpcmEncode(pcm, coded, enc_state);

  std::vector<i16> decoded(4096);
  AdpcmState dec_state;
  AdpcmDecode(coded, decoded, dec_state);

  double err2 = 0;
  double sig2 = 0;
  for (usize i = 0; i < pcm.size(); ++i) {
    const double e = static_cast<double>(pcm[i]) - decoded[i];
    err2 += e * e;
    sig2 += static_cast<double>(pcm[i]) * pcm[i];
  }
  EXPECT_LT(std::sqrt(err2 / sig2), 0.05)
      << "ADPCM should reconstruct within ~5% relative RMS";
}

TEST(AdpcmTest, EncoderAndDecoderPredictorsStayInLockStep) {
  const std::vector<i16> pcm = MakeAudioPcm(1024, 5);
  std::vector<u8> coded(512);
  AdpcmState enc_state;
  AdpcmEncode(pcm, coded, enc_state);

  AdpcmState dec_state;
  std::vector<i16> decoded(1024);
  AdpcmDecode(coded, decoded, dec_state);
  EXPECT_EQ(enc_state.valprev, dec_state.valprev);
  EXPECT_EQ(enc_state.index, dec_state.index);
}

TEST(AdpcmTest, DecodeIsDeterministic) {
  const std::vector<u8> in = MakeAdpcmStream(512, 3);
  std::vector<i16> out1(1024), out2(1024);
  AdpcmState s1, s2;
  AdpcmDecode(in, out1, s1);
  AdpcmDecode(in, out2, s2);
  EXPECT_EQ(out1, out2);
}

TEST(AdpcmTest, StreamingEqualsOneShot) {
  // Decoding in chunks with carried state must equal a single decode —
  // the property that lets the VIM system restart mid-stream.
  const std::vector<u8> in = MakeAdpcmStream(1000, 8);
  std::vector<i16> whole(2000);
  AdpcmState s;
  AdpcmDecode(in, whole, s);

  std::vector<i16> pieces(2000);
  AdpcmState sp;
  usize pos = 0;
  for (const usize chunk : {100u, 400u, 500u}) {
    AdpcmDecode(std::span<const u8>(in).subspan(pos, chunk),
                std::span<i16>(pieces).subspan(2 * pos, 2 * chunk), sp);
    pos += chunk;
  }
  EXPECT_EQ(pieces, whole);
}

TEST(AdpcmTest, KnownVectorFirstSamples) {
  // Pin the exact transition function (guards against table edits):
  // from reset, code 0x7 adds step contributions of step=7.
  AdpcmState state;
  const i16 s = AdpcmDecodeSample(0x7, state);
  // diff = 7 + 3 + 1 + 0 (step>>3 = 0) = 7>>3=0 + 7 + 3 + 1 = 11.
  EXPECT_EQ(s, 11);
  EXPECT_EQ(state.index, 8u);
}

TEST(AdpcmTest, TransitionMatchesMediaBenchShiftArithmetic) {
  // The MediaBench adpcm_decoder step, restated: the difference is
  // built from the previous step with shifts, added or subtracted by
  // the sign bit, clamped to 16 bits; the index moves by the index
  // table and clamps to 0..88. Every (index, code) pair, from the
  // middle of the range and from both clamps.
  constexpr i32 kIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                                   -1, -1, -1, -1, 2, 4, 6, 8};
  constexpr i32 kStepSizeTable[89] = {
      7,     8,     9,     10,    11,    12,    13,    14,    16,
      17,    19,    21,    23,    25,    28,    31,    34,    37,
      41,    45,    50,    55,    60,    66,    73,    80,    88,
      97,    107,   118,   130,   143,   157,   173,   190,   209,
      230,   253,   279,   307,   337,   371,   408,   449,   494,
      544,   598,   658,   724,   796,   876,   963,   1060,  1166,
      1282,  1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,
      3024,  3327,  3660,  4026,  4428,  4871,  5358,  5894,  6484,
      7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899, 15289,
      16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};
  for (i32 index = 0; index <= kAdpcmMaxIndex; ++index) {
    const i32 step = kStepSizeTable[index];
    for (u8 code = 0; code < 16; ++code) {
      i32 vpdiff = step >> 3;
      if (code & 4) vpdiff += step;
      if (code & 2) vpdiff += step >> 1;
      if (code & 1) vpdiff += step >> 2;
      const i32 next = std::clamp(index + kIndexTable[code], 0, 88);
      for (const i32 valprev : {-32768, -1000, 0, 1000, 32767}) {
        const i32 expect = std::clamp(
            (code & 8) ? valprev - vpdiff : valprev + vpdiff, -32768, 32767);
        AdpcmState state{static_cast<i16>(valprev), static_cast<u8>(index)};
        ASSERT_EQ(AdpcmDecodeSample(code, state), expect)
            << "index " << index << " code " << int{code} << " valprev "
            << valprev;
        ASSERT_EQ(state.valprev, expect);
        ASSERT_EQ(state.index, next)
            << "index " << index << " code " << int{code};
      }
    }
  }
}

TEST(AdpcmTest, DecodeEqualsTheSampleStepLoop) {
  // AdpcmDecode keeps the predictor in locals, advances the index once
  // per byte and clamps only a byte whose unclamped samples leave i16;
  // it must leave the same samples and the same final state as stepping
  // sample by sample, low nibble first. From every start index and from
  // a start predictor in the middle, on both rails and at -1: each byte
  // value alone (every (index, byte) pair of the per-byte step), then a
  // stream that holds all 256 byte values ahead of a synthetic one and a
  // seeded random one. Random bytes drive the index high, where steps
  // saturate: some bytes put the first sample on a rail and bring the
  // second back, others put only the second there.
  u64 first_only_on_rail = 0;
  u64 second_only_on_rail = 0;
  auto on_rail = [](i16 sample) { return sample == 32767 || sample == -32768; };
  auto expect_step_loop = [&](std::span<const u8> in, AdpcmState start) {
    std::vector<i16> out(2 * in.size());
    AdpcmState state = start;
    AdpcmDecode(in, out, state);
    AdpcmState step = start;
    for (usize i = 0; i < in.size(); ++i) {
      ASSERT_EQ(out[2 * i], AdpcmDecodeSample(in[i] & 0x0F, step))
          << "byte " << i << ", start " << start.valprev << " index "
          << int{start.index};
      ASSERT_EQ(out[2 * i + 1], AdpcmDecodeSample(in[i] >> 4, step))
          << "byte " << i << ", start " << start.valprev << " index "
          << int{start.index};
      const bool first = on_rail(out[2 * i]);
      const bool second = on_rail(out[2 * i + 1]);
      first_only_on_rail += first && !second;
      second_only_on_rail += second && !first;
    }
    EXPECT_EQ(state.valprev, step.valprev);
    EXPECT_EQ(state.index, step.index);
  };
  std::vector<u8> stream(256);
  for (usize b = 0; b < stream.size(); ++b) stream[b] = static_cast<u8>(b);
  const std::vector<u8> synthetic = MakeAdpcmStream(4096, 21);
  stream.insert(stream.end(), synthetic.begin(), synthetic.end());
  const std::vector<u8> random = MakeRandomBytes(4096, 43);
  stream.insert(stream.end(), random.begin(), random.end());
  for (const i16 valprev : {i16{-1234}, i16{-32768}, i16{-1}, i16{32767}}) {
    for (u8 index = 0; index <= kAdpcmMaxIndex; ++index) {
      for (usize b = 0; b < 256; ++b) {
        expect_step_loop(std::span<const u8>(&stream[b], 1),
                         AdpcmState{valprev, index});
      }
      expect_step_loop(stream, AdpcmState{valprev, index});
    }
  }
  EXPECT_GT(first_only_on_rail, 0u);
  EXPECT_GT(second_only_on_rail, 0u);
}

}  // namespace
}  // namespace vcop::apps
