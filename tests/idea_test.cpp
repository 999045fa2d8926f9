// Unit tests for the IDEA cipher: group-operation algebra, official
// test vector, key-schedule structure, inversion, and ECB behaviour.
#include <gtest/gtest.h>

#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"

namespace vcop::apps {
namespace {

// ----- mul / inv algebra -----

TEST(IdeaMulTest, MatchesDirectModularDefinition) {
  // Against the defining formula, every a against b = 0, 771, ...,
  // 0xFFFF (771 divides 0xFFFF): operands 0 represent 2^16 in
  // Z*_{2^16+1}.
  for (u32 a = 0; a <= 0xFFFF; ++a) {
    for (u32 b = 0; b <= 0xFFFF; b += 771) {
      const u64 aa = a == 0 ? 65536 : a;
      const u64 bb = b == 0 ? 65536 : b;
      const u64 expect = (aa * bb) % 65537 % 65536;  // 65536 -> encoded as 0
      ASSERT_EQ(IdeaMul(static_cast<u16>(a), static_cast<u16>(b)),
                static_cast<u16>(expect))
          << a << " * " << b;
    }
  }
}

TEST(IdeaMulTest, IdentityAndZeroRepresentation) {
  EXPECT_EQ(IdeaMul(1, 12345), 12345u);
  EXPECT_EQ(IdeaMul(12345, 1), 12345u);
  // 0 represents 2^16 = -1 mod 2^16+1, so 0*0 = 1.
  EXPECT_EQ(IdeaMul(0, 0), 1u);
  // 0 * x = -x mod 2^16+1.
  EXPECT_EQ(IdeaMul(0, 2), static_cast<u16>(65537 - 2));
}

TEST(IdeaMulTest, ExhaustiveWithZeroAndUnitOperands) {
  // The zero operand (≡ 2^16) is taken by a select, not a branch: every
  // a against b in {0, 1, 0xFFFF}, and every b against a = 0.
  auto expect = [](u32 a, u32 b) {
    const u64 aa = a == 0 ? 65536 : a;
    const u64 bb = b == 0 ? 65536 : b;
    return static_cast<u16>(aa * bb % 65537 % 65536);
  };
  for (u32 x = 0; x <= 0xFFFF; ++x) {
    for (const u32 b : {0u, 1u, 0xFFFFu}) {
      ASSERT_EQ(IdeaMul(static_cast<u16>(x), static_cast<u16>(b)),
                expect(x, b))
          << x << " * " << b;
    }
    ASSERT_EQ(IdeaMul(0, static_cast<u16>(x)), expect(0, x)) << "0 * " << x;
  }
}

TEST(IdeaMulInvTest, InverseForAllRepresentativeValues) {
  Rng rng(2);
  for (int i = 0; i < 5'000; ++i) {
    const u16 x = static_cast<u16>(rng.NextBelow(65536));
    EXPECT_EQ(IdeaMul(x, IdeaMulInv(x)), 1u) << "x=" << x;
  }
  EXPECT_EQ(IdeaMul(0, IdeaMulInv(0)), 1u);
  EXPECT_EQ(IdeaMul(65535, IdeaMulInv(65535)), 1u);
}

// ----- official test vector -----

TEST(IdeaTest, CanonicalTestVector) {
  // The classic IDEA reference vector: key 0001 0002 ... 0008,
  // plaintext 0000 0001 0002 0003 -> ciphertext 11FB ED2B 0198 6DE5.
  IdeaKey key{};
  for (u8 i = 0; i < 8; ++i) {
    key[2 * i] = 0;
    key[2 * i + 1] = static_cast<u8>(i + 1);
  }
  u8 block[8] = {0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03};
  const IdeaSubkeys ek = IdeaExpandKey(key);
  IdeaCryptBlock(ek, std::span<u8, 8>(block));
  const u8 expect[8] = {0x11, 0xFB, 0xED, 0x2B, 0x01, 0x98, 0x6D, 0xE5};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(block[i], expect[i]) << i;
}

TEST(IdeaTest, CanonicalVectorDecrypts) {
  IdeaKey key{};
  for (u8 i = 0; i < 8; ++i) {
    key[2 * i] = 0;
    key[2 * i + 1] = static_cast<u8>(i + 1);
  }
  u8 block[8] = {0x11, 0xFB, 0xED, 0x2B, 0x01, 0x98, 0x6D, 0xE5};
  const IdeaSubkeys dk = IdeaInvertKey(IdeaExpandKey(key));
  IdeaCryptBlock(dk, std::span<u8, 8>(block));
  const u8 expect[8] = {0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(block[i], expect[i]) << i;
}

// ----- key schedule -----

TEST(IdeaKeyScheduleTest, FirstEightSubkeysAreTheKey) {
  const IdeaKey key = MakeIdeaKey(4);
  const IdeaSubkeys ek = IdeaExpandKey(key);
  for (usize i = 0; i < 8; ++i) {
    EXPECT_EQ(ek[i], static_cast<u16>((key[2 * i] << 8) | key[2 * i + 1]));
  }
}

TEST(IdeaKeyScheduleTest, RotationProperty) {
  // Subkey 8 = bits 25..40 of the key (left-rotate by 25).
  const IdeaKey key = MakeIdeaKey(5);
  const IdeaSubkeys ek = IdeaExpandKey(key);
  // Build the 128-bit value as bytes and extract bits 25..41 manually.
  auto bit = [&key](usize i) {
    return (key[(i / 8) % 16] >> (7 - i % 8)) & 1;
  };
  u16 expect = 0;
  for (usize b = 0; b < 16; ++b) {
    expect = static_cast<u16>((expect << 1) | bit(25 + b));
  }
  EXPECT_EQ(ek[8], expect);
}

TEST(IdeaKeyScheduleTest, InvertTwiceIsIdentity) {
  const IdeaSubkeys ek = IdeaExpandKey(MakeIdeaKey(6));
  EXPECT_EQ(IdeaInvertKey(IdeaInvertKey(ek)), ek);
}

// ----- ECB -----

TEST(IdeaEcbTest, RoundTripRandomBuffers) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const usize blocks = 1 + rng.NextBelow(64);
    const std::vector<u8> pt = MakeRandomBytes(blocks * 8, trial);
    const IdeaSubkeys ek = IdeaExpandKey(MakeIdeaKey(trial));
    const IdeaSubkeys dk = IdeaInvertKey(ek);
    std::vector<u8> ct(pt.size()), rt(pt.size());
    IdeaCryptEcb(ek, pt, ct);
    IdeaCryptEcb(dk, ct, rt);
    EXPECT_EQ(rt, pt) << "trial " << trial;
    EXPECT_NE(ct, pt);
  }
}

TEST(IdeaEcbTest, EightBlockPassesEqualBlockByBlock) {
  // ECB runs 32 blocks per pass, then 8, then one at a time; every
  // length from 0 to 70 blocks (up to two 32-block passes, then every
  // count of 8-block passes and of single blocks) must equal
  // IdeaCryptBlock block by block, out of place and in place. All-zero
  // words and the all-zero key (every subkey 0) take the multiply's
  // zero-operand select in every lane.
  const IdeaKey zero_key{};
  for (const IdeaKey& key : {MakeIdeaKey(15), zero_key}) {
    const IdeaSubkeys ek = IdeaExpandKey(key);
    for (usize blocks = 0; blocks <= 70; ++blocks) {
      for (const bool zero_words : {true, false}) {
        const std::vector<u8> in =
            zero_words ? std::vector<u8>(blocks * kIdeaBlockBytes, 0)
                       : MakeRandomBytes(blocks * kIdeaBlockBytes, blocks);
        std::vector<u8> ecb(in.size());
        IdeaCryptEcb(ek, in, ecb);
        std::vector<u8> expect = in;
        for (usize b = 0; b < blocks; ++b) {
          IdeaCryptBlock(ek, std::span<u8, kIdeaBlockBytes>(
                                 expect.data() + b * kIdeaBlockBytes,
                                 kIdeaBlockBytes));
        }
        EXPECT_EQ(ecb, expect) << blocks << " blocks, zero words "
                               << zero_words << ", key[0] " << ek[0];
        std::vector<u8> in_place = in;
        IdeaCryptEcb(ek, in_place, in_place);
        EXPECT_EQ(in_place, expect) << blocks << " blocks in place";
      }
    }
  }
}

TEST(IdeaEcbTest, EqualBlocksEncryptEqually) {
  // ECB determinism (and why real systems use other modes).
  const IdeaSubkeys ek = IdeaExpandKey(MakeIdeaKey(8));
  std::vector<u8> pt(16, 0x42);
  std::vector<u8> ct(16);
  IdeaCryptEcb(ek, pt, ct);
  EXPECT_TRUE(std::equal(ct.begin(), ct.begin() + 8, ct.begin() + 8));
}

TEST(IdeaEcbTest, InPlaceOperation) {
  const IdeaSubkeys ek = IdeaExpandKey(MakeIdeaKey(9));
  std::vector<u8> buf = MakeRandomBytes(64, 10);
  const std::vector<u8> orig = buf;
  IdeaCryptEcb(ek, buf, buf);
  EXPECT_NE(buf, orig);
  std::vector<u8> expect(64);
  IdeaCryptEcb(ek, orig, expect);
  EXPECT_EQ(buf, expect);
}

TEST(IdeaEcbTest, AvalancheOnPlaintextBit) {
  const IdeaSubkeys ek = IdeaExpandKey(MakeIdeaKey(11));
  std::vector<u8> a = MakeRandomBytes(8, 12);
  std::vector<u8> b = a;
  b[0] ^= 0x01;
  std::vector<u8> ca(8), cb(8);
  IdeaCryptEcb(ek, a, ca);
  IdeaCryptEcb(ek, b, cb);
  int differing_bits = 0;
  for (usize i = 0; i < 8; ++i) {
    differing_bits += std::popcount(static_cast<unsigned>(ca[i] ^ cb[i]));
  }
  EXPECT_GE(differing_bits, 16) << "one flipped bit should avalanche";
}

}  // namespace
}  // namespace vcop::apps
