// IDEA block cipher (Lai–Massey, 1991) — the paper's "complex
// cryptographic algorithm" (§4.1).
//
// IDEA encrypts 64-bit blocks under a 128-bit key with 8 full rounds
// plus an output half-round, built from three 16-bit group operations:
// XOR, addition mod 2^16, and multiplication mod 2^16+1 (with 0
// representing 2^16). The multiplication makes it expensive in software
// on a multiplier-weak ARM — hence the paper's 11–18x coprocessor
// speedups — while mapping well to hardware.
//
// This is the bit-exact reference; the coprocessor FSM in
// src/cp/idea_cp.* must match it. (IDEA's patents expired in 2011/2012;
// the algorithm is public domain today.)
#pragma once

#include <array>
#include <span>

#include "base/types.h"

namespace vcop::apps {

inline constexpr usize kIdeaBlockBytes = 8;
inline constexpr usize kIdeaKeyBytes = 16;
inline constexpr usize kIdeaRounds = 8;
inline constexpr usize kIdeaSubkeys = 6 * kIdeaRounds + 4;  // 52

using IdeaKey = std::array<u8, kIdeaKeyBytes>;
using IdeaSubkeys = std::array<u16, kIdeaSubkeys>;

/// Multiplication in GF(2^16+1) with 0 ≡ 2^16 (the "mul" operation).
u16 IdeaMul(u16 a, u16 b);

/// Multiplicative inverse in GF(2^16+1); IdeaMul(x, IdeaMulInv(x)) == 1
/// for all x (0 is its own inverse under the 0 ≡ 2^16 convention).
u16 IdeaMulInv(u16 x);

/// Expands a 128-bit key into the 52 encryption subkeys.
IdeaSubkeys IdeaExpandKey(const IdeaKey& key);

/// Derives the decryption subkeys from the encryption subkeys.
IdeaSubkeys IdeaInvertKey(const IdeaSubkeys& ek);

/// Transforms one 64-bit block in place under `subkeys` (use the
/// encryption subkeys to encrypt, the inverted ones to decrypt).
void IdeaCryptBlock(const IdeaSubkeys& subkeys, std::span<u8, kIdeaBlockBytes> block);

/// ECB over a whole buffer; sizes must be equal multiples of 8. Runs
/// the rounds over 32 blocks per pass, then 8, then block by block; the
/// result equals IdeaCryptBlock on each block.
void IdeaCryptEcb(const IdeaSubkeys& subkeys, std::span<const u8> in,
                  std::span<u8> out);

/// A 64-bit initialisation vector for the chained modes.
using IdeaIv = std::array<u8, kIdeaBlockBytes>;

/// CBC encryption: C_i = E(P_i ^ C_{i-1}), C_0 chained from `iv`.
/// Unlike ECB, equal plaintext blocks encrypt differently.
void IdeaCbcEncrypt(const IdeaSubkeys& ek, const IdeaIv& iv,
                    std::span<const u8> in, std::span<u8> out);

/// CBC decryption with the *inverted* key schedule:
/// P_i = D(C_i) ^ C_{i-1}.
void IdeaCbcDecrypt(const IdeaSubkeys& dk, const IdeaIv& iv,
                    std::span<const u8> in, std::span<u8> out);

}  // namespace vcop::apps
