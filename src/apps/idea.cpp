#include "apps/idea.h"

#include "base/status.h"

namespace vcop::apps {

u16 IdeaMul(u16 a, u16 b) {
  // Multiplication mod 2^16+1 with 0 representing 2^16 (a group of
  // order 2^16 on {1..2^16}). Low-high decomposition avoids a 32-bit
  // modulo: for p = a*b != 0, p mod (2^16+1) = lo - hi (+2^16+1 if
  // lo < hi). p == 0 exactly when an operand is 0 (≡ 2^16 ≡ -1), and
  // then the product is -b resp. -a, i.e. 1 - a - b mod 2^16 either
  // way. Both results are computed and one selected, with no branch.
  // `lo` and `hi` are two separate 16-bit expressions, so that in the
  // block loops below the compiler emits a 16-bit low and high multiply
  // per lane pair (pmullw, pmulhuw) rather than widening every lane to
  // 32 bits and shuffling back.
  const u16 lo = static_cast<u16>(static_cast<u32>(a) * b);
  const u16 hi = static_cast<u16>((static_cast<u32>(a) * b) >> 16);
  const u16 product = static_cast<u16>(lo - hi + (hi > lo));
  const u16 by_zero = static_cast<u16>(1 - a - b);
  return a == 0 || b == 0 ? by_zero : product;
}

u16 IdeaMulInv(u16 x) {
  // Extended Euclid in Z_{2^16+1}; 0 (≡ 2^16) is its own inverse, as is 1.
  if (x <= 1) return x;
  u32 t1 = 0x10001u / x;
  u32 y = 0x10001u % x;
  if (y == 1) {
    return static_cast<u16>((1 - t1) & 0xFFFF);
  }
  u32 t0 = 1;
  u32 q;
  do {
    q = x / y;
    x = static_cast<u16>(x % y);
    t0 += q * t1;
    if (x == 1) return static_cast<u16>(t0);
    q = y / x;
    y = y % x;
    t1 += q * t0;
  } while (y != 1);
  return static_cast<u16>((1 - t1) & 0xFFFF);
}

IdeaSubkeys IdeaExpandKey(const IdeaKey& key) {
  IdeaSubkeys ek{};
  // First 8 subkeys are the key itself, big-endian 16-bit words.
  for (usize i = 0; i < 8; ++i) {
    ek[i] = static_cast<u16>((key[2 * i] << 8) | key[2 * i + 1]);
  }
  // Each further batch of 8 comes from rotating the 128-bit key left by
  // 25 bits, expressed here on the u16 array.
  for (usize i = 8; i < kIdeaSubkeys; ++i) {
    const usize batch = (i / 8) * 8;
    const usize j = i % 8;
    const u16 a = ek[batch - 8 + ((j + 1) & 7)];
    const u16 b = ek[batch - 8 + ((j + 2) & 7)];
    ek[i] = static_cast<u16>((a << 9) | (b >> 7));
  }
  return ek;
}

IdeaSubkeys IdeaInvertKey(const IdeaSubkeys& ek) {
  IdeaSubkeys dk{};
  // Decryption round r undoes encryption round (8-r): its transform
  // keys are the inverses of that round's input keys (of the output
  // half-round for r = 0), with the two addition keys swapped except at
  // the boundaries because of the x2/x3 crossing; its MA keys are taken
  // unchanged from encryption round (7-r).
  for (usize r = 0; r < kIdeaRounds; ++r) {
    const usize d = 6 * r;
    const usize e = 6 * (kIdeaRounds - r);  // 48 for r==0: output keys
    const bool swap = r != 0;
    dk[d + 0] = IdeaMulInv(ek[e + 0]);
    dk[d + 1] = static_cast<u16>(-(swap ? ek[e + 2] : ek[e + 1]));
    dk[d + 2] = static_cast<u16>(-(swap ? ek[e + 1] : ek[e + 2]));
    dk[d + 3] = IdeaMulInv(ek[e + 3]);
    dk[d + 4] = ek[6 * (kIdeaRounds - 1 - r) + 4];
    dk[d + 5] = ek[6 * (kIdeaRounds - 1 - r) + 5];
  }
  // Decryption output transform = inverse of encryption round-0 input.
  const usize d = 6 * kIdeaRounds;
  dk[d + 0] = IdeaMulInv(ek[0]);
  dk[d + 1] = static_cast<u16>(-ek[1]);
  dk[d + 2] = static_cast<u16>(-ek[2]);
  dk[d + 3] = IdeaMulInv(ek[3]);
  return dk;
}

namespace {

u16 Load16(const u8* p) { return static_cast<u16>((p[0] << 8) | p[1]); }

void Store16(u8* p, u16 v) {
  p[0] = static_cast<u8>(v >> 8);
  p[1] = static_cast<u8>(v);
}

/// The eight rounds and the output transform over `N` independent
/// blocks from `in` to `out` (which may be the same buffer). Word w of
/// every block sits in one array, so each step of a round runs over all
/// N blocks at once: the blocks' dependency chains of 34 multiplies
/// overlap, and for N = 8 and 32 the compiler vectorises the steps into
/// 16-bit lanes.
template <usize N>
void IdeaCryptBlocks(const IdeaSubkeys& k, const u8* in, u8* out) {
  u16 x1[N], x2[N], x3[N], x4[N];
  for (usize b = 0; b < N; ++b) {
    x1[b] = Load16(in + kIdeaBlockBytes * b);
    x2[b] = Load16(in + kIdeaBlockBytes * b + 2);
    x3[b] = Load16(in + kIdeaBlockBytes * b + 4);
    x4[b] = Load16(in + kIdeaBlockBytes * b + 6);
  }

  for (usize i = 0; i < 6 * kIdeaRounds; i += 6) {
    for (usize b = 0; b < N; ++b) {
      const u16 y1 = IdeaMul(x1[b], k[i + 0]);
      const u16 y2 = static_cast<u16>(x2[b] + k[i + 1]);
      const u16 y3 = static_cast<u16>(x3[b] + k[i + 2]);
      const u16 y4 = IdeaMul(x4[b], k[i + 3]);

      const u16 t0 = IdeaMul(static_cast<u16>(y1 ^ y3), k[i + 4]);
      const u16 t1 = IdeaMul(static_cast<u16>((y2 ^ y4) + t0), k[i + 5]);
      const u16 t2 = static_cast<u16>(t0 + t1);

      // The x2/x3 crossing.
      x1[b] = static_cast<u16>(y1 ^ t1);
      x2[b] = static_cast<u16>(y3 ^ t1);
      x3[b] = static_cast<u16>(y2 ^ t2);
      x4[b] = static_cast<u16>(y4 ^ t2);
    }
  }

  // Output transform (note x2/x3 cross back).
  const usize i = 6 * kIdeaRounds;
  for (usize b = 0; b < N; ++b) {
    Store16(out + kIdeaBlockBytes * b, IdeaMul(x1[b], k[i + 0]));
    Store16(out + kIdeaBlockBytes * b + 2, static_cast<u16>(x3[b] + k[i + 1]));
    Store16(out + kIdeaBlockBytes * b + 4, static_cast<u16>(x2[b] + k[i + 2]));
    Store16(out + kIdeaBlockBytes * b + 6, IdeaMul(x4[b], k[i + 3]));
  }
}

/// IdeaCryptBlocks<N> over every whole N-block pass from byte `off`
/// on; returns the offset after the last one.
template <usize N>
usize IdeaCryptPasses(const IdeaSubkeys& k, std::span<const u8> in,
                      std::span<u8> out, usize off) {
  constexpr usize kPassBytes = N * kIdeaBlockBytes;
  for (; off + kPassBytes <= in.size(); off += kPassBytes) {
    IdeaCryptBlocks<N>(k, in.data() + off, out.data() + off);
  }
  return off;
}

}  // namespace

void IdeaCryptBlock(const IdeaSubkeys& subkeys,
                    std::span<u8, kIdeaBlockBytes> block) {
  IdeaCryptBlocks<1>(subkeys, block.data(), block.data());
}

void IdeaCbcEncrypt(const IdeaSubkeys& ek, const IdeaIv& iv,
                    std::span<const u8> in, std::span<u8> out) {
  VCOP_CHECK_MSG(in.size() == out.size(), "CBC in/out sizes must match");
  VCOP_CHECK_MSG(in.size() % kIdeaBlockBytes == 0,
                 "CBC length must be a multiple of the block size");
  IdeaIv chain = iv;
  for (usize off = 0; off < in.size(); off += kIdeaBlockBytes) {
    u8 block[kIdeaBlockBytes];
    for (usize b = 0; b < kIdeaBlockBytes; ++b) {
      block[b] = static_cast<u8>(in[off + b] ^ chain[b]);
    }
    IdeaCryptBlock(ek, std::span<u8, kIdeaBlockBytes>(block));
    for (usize b = 0; b < kIdeaBlockBytes; ++b) {
      out[off + b] = block[b];
      chain[b] = block[b];
    }
  }
}

void IdeaCbcDecrypt(const IdeaSubkeys& dk, const IdeaIv& iv,
                    std::span<const u8> in, std::span<u8> out) {
  VCOP_CHECK_MSG(in.size() == out.size(), "CBC in/out sizes must match");
  VCOP_CHECK_MSG(in.size() % kIdeaBlockBytes == 0,
                 "CBC length must be a multiple of the block size");
  IdeaIv chain = iv;
  for (usize off = 0; off < in.size(); off += kIdeaBlockBytes) {
    u8 block[kIdeaBlockBytes];
    IdeaIv cipher;
    for (usize b = 0; b < kIdeaBlockBytes; ++b) {
      block[b] = in[off + b];
      cipher[b] = in[off + b];
    }
    IdeaCryptBlock(dk, std::span<u8, kIdeaBlockBytes>(block));
    for (usize b = 0; b < kIdeaBlockBytes; ++b) {
      out[off + b] = static_cast<u8>(block[b] ^ chain[b]);
      chain[b] = cipher[b];
    }
  }
}

void IdeaCryptEcb(const IdeaSubkeys& subkeys, std::span<const u8> in,
                  std::span<u8> out) {
  VCOP_CHECK_MSG(in.size() == out.size(), "ECB in/out sizes must match");
  VCOP_CHECK_MSG(in.size() % kIdeaBlockBytes == 0,
                 "ECB length must be a multiple of the block size");
  // Eight u16 words fill a 128-bit vector register, so a 32-block pass
  // keeps four independent vectors of multiplies in flight. 8-block
  // passes and single blocks take the tail (a 496-byte job is one
  // 32-block pass, three 8-block passes and six single blocks).
  usize off = IdeaCryptPasses<32>(subkeys, in, out, 0);
  off = IdeaCryptPasses<8>(subkeys, in, out, off);
  IdeaCryptPasses<1>(subkeys, in, out, off);
}

}  // namespace vcop::apps
