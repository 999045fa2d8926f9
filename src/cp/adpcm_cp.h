// ADPCM-decode coprocessor (the paper's adpcmdecode kernel, §4.1).
//
// A serial FSM: fetch one code byte (two 4-bit samples), decode each
// sample through the IMA step table over several cycles, write each
// reconstructed 16-bit sample. Bit-exact against apps::AdpcmDecode.
//
// Objects: 0 = input code stream (1-byte elements, mapped IN)
//          1 = output PCM samples (2-byte elements, mapped OUT)
// Parameters: [0] = input length in bytes
//             [1] = initial predictor value (valprev, as u32)
//             [2] = initial step-table index (its low byte, saturated
//                   at apps::kAdpcmMaxIndex)
#pragma once

#include <string_view>

#include "apps/adpcm.h"
#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class AdpcmDecodeCoprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjIn = 0;
  static constexpr hw::ObjectId kObjOut = 1;
  static constexpr u32 kNumParams = 3;

  /// Cycles the serial decode datapath spends reconstructing one
  /// sample (step-table lookup, difference accumulation, clamping).
  /// Calibrated so the core's throughput matches the hardware bars of
  /// Figure 8 (≈38 core cycles per input byte at 40 MHz; see
  /// EXPERIMENTS.md).
  static constexpr u32 kDecodeCyclesPerSample = 13;

  std::string_view name() const override { return "adpcmdecode"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State {
    kFetchByte,  // on capture: BeginDelay for the low-nibble decode
    kWriteLow,   // on capture: BeginDelay for the high-nibble decode
    kWriteHigh,
  };

  State state_ = State::kFetchByte;
  u32 n_bytes_ = 0;
  u32 pos_ = 0;
  u32 byte_ = 0;
  i16 sample_ = 0;
  apps::AdpcmState predictor_{};
};

}  // namespace vcop::cp
