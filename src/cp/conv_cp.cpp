#include "cp/conv_cp.h"

#include <algorithm>

namespace vcop::cp {

void Conv3x3Coprocessor::OnStart() {
  width_ = param(0);
  height_ = param(1);
  // The shift is a caller's parameter: an i64 shifted by 64 or more is
  // undefined, and from 63 up every shift gives the same image.
  shift_ = std::min(param(2), 63u);
  kernel_loaded_ = 0;
  y_ = 0;
  state_ = State::kLoadKernel;
}

void Conv3x3Coprocessor::BeginRow() {
  x_ = 0;
  tap_ = 0;
  if (y_ >= height_ || width_ == 0) {
    state_ = State::kDone;
  } else {
    state_ = CopyRow() ? State::kCopyRead : State::kPrime;
  }
}

void Conv3x3Coprocessor::Advance() {
  ++x_;
  if (x_ == width_) {
    ++y_;
    BeginRow();
    return;
  }
  if (CopyRow()) {
    state_ = State::kCopyRead;
    return;
  }
  for (auto& row : window_) {
    row[0] = row[1];
    row[1] = row[2];
  }
  if (x_ + 1 < width_) {
    tap_ = 0;
    state_ = State::kReadColumn;
  } else {
    out_value_ = window_[1][1];  // right-hand frame pixel
    state_ = State::kWritePixel;
  }
}

void Conv3x3Coprocessor::Step() {
  switch (state_) {
    case State::kLoadKernel: {
      u32 word = 0;
      if (TryRead(kObjKernel, kernel_loaded_, word)) {
        kernel_[kernel_loaded_] = static_cast<i32>(word);
        ++kernel_loaded_;
        if (kernel_loaded_ == 9) BeginRow();
      }
      break;
    }

    case State::kCopyRead:
      if (TryRead(kObjSrc, y_ * width_ + x_, out_value_)) {
        state_ = State::kWritePixel;
      }
      break;

    case State::kPrime: {
      // Column by column into window columns 1 and 2, so the window sits
      // on pixel 0 with its centre holding the left-hand frame pixel.
      const u32 row = tap_ % 3;
      const u32 col = tap_ / 3;
      if (TryRead(kObjSrc, (y_ + row - 1) * width_ + col,
                  window_[row][col + 1])) {
        ++tap_;
        if (tap_ == 6) {
          out_value_ = window_[1][1];
          state_ = State::kWritePixel;
        }
      }
      break;
    }

    case State::kReadColumn:
      if (TryRead(kObjSrc, (y_ + tap_ - 1) * width_ + x_ + 1,
                  window_[tap_][2])) {
        ++tap_;
        if (tap_ == 3) {
          i64 acc = 0;
          for (u32 k = 0; k < 9; ++k) {
            acc += static_cast<i64>(kernel_[k]) *
                   static_cast<i64>(window_[k / 3][k % 3] & 0xFF);
          }
          // MAC-array settling: the clamped result becomes observable
          // kComputeCycles edges after the last tap is latched.
          i64 v = acc >> shift_;
          if (v < 0) v = 0;
          if (v > 255) v = 255;
          out_value_ = static_cast<u32>(v);
          BeginDelay(kComputeCycles);
          state_ = State::kWritePixel;
        }
      }
      break;

    case State::kWritePixel:
      if (TryWrite(kObjDst, y_ * width_ + x_, out_value_)) Advance();
      break;

    case State::kDone:
      Finish();
      break;
  }
}

}  // namespace vcop::cp
