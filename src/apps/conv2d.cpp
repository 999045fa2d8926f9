#include "apps/conv2d.h"

#include <algorithm>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace vcop::apps {

Conv3x3Kernel BoxBlurKernel() {
  return Conv3x3Kernel{1, 1, 1, 1, 1, 1, 1, 1, 1};  // use shift 3 (~/9)
}

Conv3x3Kernel SharpenKernel() {
  return Conv3x3Kernel{0, -1, 0, -1, 5, -1, 0, -1, 0};  // shift 0
}

Conv3x3Kernel SobelXKernel() {
  return Conv3x3Kernel{-1, 0, 1, -2, 0, 2, -1, 0, 1};  // shift 0
}

Conv3x3Kernel EmbossKernel() {
  return Conv3x3Kernel{-2, -1, 0, -1, 1, 1, 0, 1, 2};  // shift 0
}

void Convolve3x3(std::span<const u8> src, u32 width, u32 height,
                 const Conv3x3Kernel& kernel, u32 shift,
                 std::span<u8> dst) {
  VCOP_CHECK_MSG(width >= 3 && height >= 3, "image must be at least 3x3");
  VCOP_CHECK_MSG(src.size() == static_cast<usize>(width) * height,
                 "source size mismatch");
  VCOP_CHECK_MSG(dst.size() == src.size(), "destination size mismatch");

  // Border: copy-through.
  for (u32 x = 0; x < width; ++x) {
    dst[x] = src[x];
    dst[static_cast<usize>(height - 1) * width + x] =
        src[static_cast<usize>(height - 1) * width + x];
  }
  for (u32 y = 0; y < height; ++y) {
    dst[static_cast<usize>(y) * width] = src[static_cast<usize>(y) * width];
    dst[static_cast<usize>(y) * width + width - 1] =
        src[static_cast<usize>(y) * width + width - 1];
  }

  // The nine taps are read once, and each output row walks the three
  // source rows around it by pointer. The i64 accumulator keeps any i32
  // kernel exact (9 * 2^31 * 255 < 2^63).
  const i64 k00 = kernel[0], k01 = kernel[1], k02 = kernel[2];
  const i64 k10 = kernel[3], k11 = kernel[4], k12 = kernel[5];
  const i64 k20 = kernel[6], k21 = kernel[7], k22 = kernel[8];
  for (u32 y = 1; y + 1 < height; ++y) {
    const u8* above = src.data() + static_cast<usize>(y - 1) * width;
    const u8* row = above + width;
    const u8* below = row + width;
    u8* out = dst.data() + static_cast<usize>(y) * width;
    for (u32 x = 1; x + 1 < width; ++x) {
      i64 acc = k00 * above[x - 1] + k01 * above[x] + k02 * above[x + 1] +
                k10 * row[x - 1] + k11 * row[x] + k12 * row[x + 1] +
                k20 * below[x - 1] + k21 * below[x] + k22 * below[x + 1];
      acc >>= shift;
      out[x] = static_cast<u8>(std::clamp<i64>(acc, 0, 255));
    }
  }
}

std::vector<u8> MakeTestImage(u32 width, u32 height, u64 seed) {
  Rng rng(seed);
  std::vector<u8> image(static_cast<usize>(width) * height);
  // Diagonal gradient background.
  for (u32 y = 0; y < height; ++y) {
    for (u32 x = 0; x < width; ++x) {
      image[static_cast<usize>(y) * width + x] =
          static_cast<u8>((x * 2 + y * 3) & 0xFF);
    }
  }
  // A few bright rectangles (skipped on images too small to hold one).
  if (width < 8 || height < 8) return image;
  for (int blob = 0; blob < 5; ++blob) {
    const u32 bw = 2 + static_cast<u32>(rng.NextBelow(width / 4));
    const u32 bh = 2 + static_cast<u32>(rng.NextBelow(height / 4));
    const u32 bx = static_cast<u32>(rng.NextBelow(width - bw));
    const u32 by = static_cast<u32>(rng.NextBelow(height - bh));
    const u8 level = static_cast<u8>(128 + rng.NextBelow(128));
    for (u32 y = by; y < by + bh; ++y) {
      for (u32 x = bx; x < bx + bw; ++x) {
        image[static_cast<usize>(y) * width + x] = level;
      }
    }
  }
  return image;
}

}  // namespace vcop::apps
