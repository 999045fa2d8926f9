#include "cp/adpcm_enc_cp.h"

#include <algorithm>

namespace vcop::cp {

void AdpcmEncodeCoprocessor::OnStart() {
  n_samples_ = param(0);
  predictor_.valprev = static_cast<i16>(param(1));
  // The index is a caller's parameter; the shared step reads its table
  // only at 0..kAdpcmMaxIndex, where every later step leaves it.
  predictor_.index =
      std::min(static_cast<u8>(param(2)), apps::kAdpcmMaxIndex);
  pos_ = 0;
  state_ = State::kReadLow;
}

void AdpcmEncodeCoprocessor::Step() {
  switch (state_) {
    case State::kReadLow:
      if (2 * pos_ >= n_samples_) {
        Finish();
        break;
      }
      if (TryRead(kObjIn, 2 * pos_, sample_)) {
        // Quantising the captured sample takes the serial datapath the
        // next kEncodeCyclesPerSample edges; the result is not
        // observable outside the core until then.
        low_code_ = apps::AdpcmEncodeSample(
            static_cast<i16>(static_cast<u16>(sample_)), predictor_);
        BeginDelay(kEncodeCyclesPerSample);
        state_ = State::kReadHigh;
      }
      break;

    case State::kReadHigh:
      if (TryRead(kObjIn, 2 * pos_ + 1, sample_)) {
        const u8 high_code = apps::AdpcmEncodeSample(
            static_cast<i16>(static_cast<u16>(sample_)), predictor_);
        byte_ = static_cast<u8>(low_code_ | (high_code << 4));
        BeginDelay(kEncodeCyclesPerSample);
        state_ = State::kWriteByte;
      }
      break;

    case State::kWriteByte:
      if (TryWrite(kObjOut, pos_, byte_)) {
        ++pos_;
        state_ = State::kReadLow;
      }
      break;
  }
}

}  // namespace vcop::cp
