#include "cp/adpcm_cp.h"

#include <algorithm>

namespace vcop::cp {

void AdpcmDecodeCoprocessor::OnStart() {
  n_bytes_ = param(0);
  predictor_.valprev = static_cast<i16>(param(1));
  // The index is a caller's parameter; the shared step reads its table
  // only at 0..kAdpcmMaxIndex, where every later step leaves it.
  predictor_.index =
      std::min(static_cast<u8>(param(2)), apps::kAdpcmMaxIndex);
  pos_ = 0;
  state_ = State::kFetchByte;
}

void AdpcmDecodeCoprocessor::Step() {
  switch (state_) {
    case State::kFetchByte:
      if (pos_ >= n_bytes_) {
        Finish();
        break;
      }
      if (TryRead(kObjIn, pos_, byte_)) {
        // The serial datapath spends the next kDecodeCyclesPerSample
        // edges reconstructing the low-nibble sample; computing it on
        // the capture edge is unobservable from outside the core.
        sample_ = apps::AdpcmDecodeSample(byte_ & 0x0F, predictor_);
        BeginDelay(kDecodeCyclesPerSample);
        state_ = State::kWriteLow;
      }
      break;

    case State::kWriteLow:
      if (TryWrite(kObjOut, 2 * pos_, static_cast<u16>(sample_))) {
        sample_ = apps::AdpcmDecodeSample((byte_ >> 4) & 0x0F, predictor_);
        BeginDelay(kDecodeCyclesPerSample);
        state_ = State::kWriteHigh;
      }
      break;

    case State::kWriteHigh:
      if (TryWrite(kObjOut, 2 * pos_ + 1, static_cast<u16>(sample_))) {
        ++pos_;
        state_ = State::kFetchByte;
      }
      break;
  }
}

}  // namespace vcop::cp
