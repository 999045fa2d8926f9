// ADPCM-encode coprocessor — the natural companion of the paper's
// adpcmdecode kernel, completing a full hardware audio codec path
// (record: encode on the PLD; play: decode on the PLD).
//
// Inverse data shape of the decoder: 16-bit samples in, 4-bit codes
// out (4:1 compression), so the *input* object dominates the interface
// memory traffic. Bit-exact against apps::AdpcmEncode.
//
// Objects: 0 = input PCM samples (2-byte elements, mapped IN)
//          1 = output code stream (1-byte elements, mapped OUT)
// Parameters: [0] = sample count (even)
//             [1] = initial predictor value (valprev, as u32)
//             [2] = initial step-table index (its low byte, saturated
//                   at apps::kAdpcmMaxIndex)
#pragma once

#include <string_view>

#include "apps/adpcm.h"
#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class AdpcmEncodeCoprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjIn = 0;
  static constexpr hw::ObjectId kObjOut = 1;
  static constexpr u32 kNumParams = 3;

  /// Cycles of the serial quantiser per sample (same datapath depth as
  /// the decoder's reconstruction).
  static constexpr u32 kEncodeCyclesPerSample = 13;

  std::string_view name() const override { return "adpcmencode"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State {
    kReadLow,   // on capture: BeginDelay for the low-sample quantise
    kReadHigh,  // on capture: BeginDelay for the high-sample quantise
    kWriteByte,
  };

  State state_ = State::kReadLow;
  u32 n_samples_ = 0;
  u32 pos_ = 0;  // sample pair index (= output byte index)
  u32 sample_ = 0;
  u8 low_code_ = 0;
  u8 byte_ = 0;
  apps::AdpcmState predictor_{};
};

}  // namespace vcop::cp
