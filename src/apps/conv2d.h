// 3x3 image convolution — a third application domain for the library
// (not from the paper's evaluation), chosen for its *strided* access
// pattern: the coprocessor walks three image rows simultaneously, so
// the interface working set is rows-not-bytes and the paging behaviour
// changes qualitatively with image width (a wide image's three-row
// window can exceed the whole dual-port RAM).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "base/types.h"

namespace vcop::apps {

/// 3x3 signed integer kernel, row-major.
using Conv3x3Kernel = std::array<i32, 9>;

/// Classic kernels for the examples/tests.
Conv3x3Kernel BoxBlurKernel();    // all ones, shift 3 recommended? (sum 9)
Conv3x3Kernel SharpenKernel();    // center 5, cross -1 — wait, see .cpp
Conv3x3Kernel SobelXKernel();     // horizontal gradient
Conv3x3Kernel EmbossKernel();

/// Convolves `src` (width x height, row-major u8) with `kernel`,
/// right-shifts by `shift` (saturated at 63), clamps to 0..255. Border
/// pixels (the one-pixel frame) are copied through unchanged.
/// dst.size() == src.size() == width*height; width, height >= 3.
void Convolve3x3(std::span<const u8> src, u32 width, u32 height,
                 const Conv3x3Kernel& kernel, u32 shift,
                 std::span<u8> dst);

/// Deterministic synthetic test image (gradients + blobs).
std::vector<u8> MakeTestImage(u32 width, u32 height, u64 seed);

}  // namespace vcop::apps
