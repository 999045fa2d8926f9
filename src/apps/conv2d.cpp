#include "apps/conv2d.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace vcop::apps {
namespace {

// Eight pixels in 16-bit lanes: GCC/Clang vector extensions, which
// baseline x86-64 compiles to SSE2.
using I16x8 = i16 __attribute__((vector_size(16)));
using U8x8 = u8 __attribute__((vector_size(8)));

I16x8 Load8(const u8* p) {
  U8x8 v;
  std::memcpy(&v, p, sizeof(v));
  return __builtin_convertvector(v, I16x8);
}

}  // namespace

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
  // An i64 shifted by 64 or more is undefined; from 63 up every shift
  // gives the same image.
  shift = std::min(shift, 63u);

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
  // A kernel of weight sum|k| <= 128 keeps every partial sum over u8
  // pixels within i16 (128 * 255 = 32 640), whatever the order of the
  // taps, so such a row runs eight pixels per step in i16 lanes. Such a
  // sum shifted right by 15 or more is 0 or -1, which clamps to 0 as
  // the i64 loop's result does.
  i64 weight = 0;
  for (const i32 k : kernel) weight += k < 0 ? -i64{k} : i64{k};
  const bool lanes = weight * 255 <= std::numeric_limits<i16>::max();
  const i16 t00 = static_cast<i16>(k00), t01 = static_cast<i16>(k01),
            t02 = static_cast<i16>(k02), t10 = static_cast<i16>(k10),
            t11 = static_cast<i16>(k11), t12 = static_cast<i16>(k12),
            t20 = static_cast<i16>(k20), t21 = static_cast<i16>(k21),
            t22 = static_cast<i16>(k22);
  const u32 lane_shift = std::min(shift, 15u);
  const I16x8 zero{};
  const I16x8 max_pixel = zero + 255;
  for (u32 y = 1; y + 1 < height; ++y) {
    const u8* above = src.data() + static_cast<usize>(y - 1) * width;
    const u8* row = above + width;
    const u8* below = row + width;
    u8* out = dst.data() + static_cast<usize>(y) * width;
    u32 x = 1;
    // Pixels x..x+7 read up to x+8, the row's last pixel at most.
    for (; lanes && x + 8 < width; x += 8) {
      I16x8 acc = t00 * Load8(above + x - 1) + t01 * Load8(above + x) +
                  t02 * Load8(above + x + 1) + t10 * Load8(row + x - 1) +
                  t11 * Load8(row + x) + t12 * Load8(row + x + 1) +
                  t20 * Load8(below + x - 1) + t21 * Load8(below + x) +
                  t22 * Load8(below + x + 1);
      acc >>= lane_shift;
      acc = acc < zero ? zero : acc;
      acc = acc > max_pixel ? max_pixel : acc;
      const U8x8 pixels = __builtin_convertvector(acc, U8x8);
      std::memcpy(out + x, &pixels, sizeof(pixels));
    }
    for (; x + 1 < width; ++x) {
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
