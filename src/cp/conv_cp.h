// 3x3 convolution coprocessor.
//
// One raster pass over a width x height u8 image through a 3x3 register
// window, so three image rows are live at once — a strided working set.
// Rows 0 and h-1 are copied through (one read, one write per pixel).
// Each middle row y primes the window with columns 0 and 1 of rows
// y-1..y+1 (6 reads) and copies dst[y][0] out of it; each inner pixel
// then reads only the three pixels of column x+1, runs the MAC, writes
// dst[y][x] and slides the window one column right; the row ends by
// copying dst[y][w-1] out of the window. Bit-exact against
// apps::Convolve3x3.
//
// Every access pays the IMU's 4-cycle translation (§4.1), so the core
// reads each source pixel at most three times, not nine:
//   reads  = 3 parameters + 9 coefficients + 2w + 3w(h-2)
//   writes = w*h
// The page walk is one sequential sweep of three source rows and one
// destination row, so each page faults once while they fit the DP-RAM.
// The window is nine 8-bit registers, not line buffers: no width limit
// and no block RAM, inside the 2100 LEs Conv3x3Bitstream() declares,
// which is why the bit-stream and every configuration price did not
// change with it.
//
// Objects: 0 = source image  (1-byte elements, mapped IN)
//          1 = destination   (1-byte elements, mapped OUT)
//          2 = kernel coefficients, 9 x u32 two's-complement (mapped IN)
// Parameters: [0] = width, [1] = height, [2] = normalising right-shift
#pragma once

#include <string_view>

#include "apps/conv2d.h"
#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class Conv3x3Coprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjSrc = 0;
  static constexpr hw::ObjectId kObjDst = 1;
  static constexpr hw::ObjectId kObjKernel = 2;
  static constexpr u32 kNumParams = 3;

  /// MAC-array settling time once the 9 taps are latched.
  static constexpr u32 kComputeCycles = 3;

  std::string_view name() const override { return "conv3x3"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State {
    kLoadKernel,
    kCopyRead,    // frame rows: one read per pixel, then kWritePixel
    kPrime,       // columns 0 and 1 of rows y-1..y+1 (6 reads)
    kReadColumn,  // column x+1 (3 reads); 3rd capture BeginDelay
    kWritePixel,  // dst[y][x] = out_value_
    kDone,
  };

  /// Frame rows (and every row of an image with no interior) copy
  /// through instead of convolving.
  bool CopyRow() const {
    return y_ == 0 || y_ + 1 >= height_ || width_ < 3;
  }
  /// Enters column 0 of row y_.
  void BeginRow();
  /// After dst[y][x] is written: the next pixel, or the next row.
  void Advance();

  State state_ = State::kLoadKernel;
  u32 width_ = 0;
  u32 height_ = 0;
  u32 shift_ = 0;
  i32 kernel_[9] = {};
  u32 kernel_loaded_ = 0;

  /// window_[r][c] holds src[y-1+r][x-1+c] for the current pixel x.
  u32 window_[3][3] = {};
  u32 x_ = 0;
  u32 y_ = 0;
  u32 tap_ = 0;
  u32 out_value_ = 0;
};

}  // namespace vcop::cp
