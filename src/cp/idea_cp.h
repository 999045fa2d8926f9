// IDEA encryption coprocessor (the paper's "complex cryptographic
// application", §4.1).
//
// The paper's core runs at 6 MHz with a 3-stage-pipelined datapath
// while its memory subsystem (the IMU side) runs at 24 MHz, the two
// synchronised "by a stall mechanism". This model keeps the same clock
// arrangement: the FSM fetches one 64-bit block as two 32-bit elements,
// spends kPipelineCycles core cycles pushing the block through the
// round datapath, and writes the two result words. Bit-exact against
// apps::IdeaCryptEcb.
//
// Objects: 0 = input blocks  (4-byte elements, mapped IN)
//          1 = output blocks (4-byte elements, mapped OUT)
//          2 = expanded subkeys, 52 u16 (2-byte elements, mapped IN)
// Parameters: [0] = number of 8-byte blocks
//             [1] = mode (kModeEcb / kModeCbcEncrypt / kModeCbcDecrypt)
//             [2] = IV low word, [3] = IV high word (CBC modes;
//                   little-endian words of the 8 IV bytes)
#pragma once

#include <string_view>

#include "apps/idea.h"
#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class IdeaCoprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjIn = 0;
  static constexpr hw::ObjectId kObjOut = 1;
  static constexpr hw::ObjectId kObjKey = 2;
  static constexpr u32 kNumParams = 4;

  static constexpr u32 kModeEcb = 0;
  static constexpr u32 kModeCbcEncrypt = 1;
  static constexpr u32 kModeCbcDecrypt = 2;

  /// Core cycles a block occupies the 3-stage round pipeline (8.5
  /// Lai–Massey rounds at ~1 round/cycle through the reused datapath).
  static constexpr u32 kPipelineCycles = 8;

  std::string_view name() const override { return "idea"; }
  /// The mode and the CBC chaining value are optional.
  u32 required_params() const override { return 1; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State {
    kLoadKey,   // one-time: pull the 52 subkeys into core registers
    kReadLo,
    kReadHi,    // on capture: crypt + BeginDelay(kPipelineCycles)
    kWriteLo,
    kWriteHi,
  };

  /// Runs the reference round function on the latched 64-bit block.
  void CryptLatchedBlock();

  State state_ = State::kLoadKey;
  u32 n_blocks_ = 0;
  u32 blk_ = 0;
  u32 key_index_ = 0;
  u32 mode_ = kModeEcb;
  apps::IdeaSubkeys subkeys_{};
  u32 lo_ = 0;
  u32 hi_ = 0;
  u32 chain_lo_ = 0;  // CBC chaining register (previous ciphertext)
  u32 chain_hi_ = 0;
};

}  // namespace vcop::cp
