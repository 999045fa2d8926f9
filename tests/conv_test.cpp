// Tests for the 2D convolution domain: reference implementation
// properties, coprocessor bit-exactness across image shapes (including
// widths whose three-row window stresses the interface memory).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "apps/conv2d.h"
#include "cp/conv_cp.h"
#include "cp/registry.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using apps::Conv3x3Kernel;
using apps::Convolve3x3;
using apps::MakeTestImage;

// ----- reference implementation -----

TEST(Conv2dReferenceTest, IdentityKernelCopies) {
  const Conv3x3Kernel identity{0, 0, 0, 0, 1, 0, 0, 0, 0};
  const std::vector<u8> img = MakeTestImage(16, 12, 1);
  std::vector<u8> out(img.size());
  Convolve3x3(img, 16, 12, identity, 0, out);
  EXPECT_EQ(out, img);
}

TEST(Conv2dReferenceTest, BordersCopiedThrough) {
  const std::vector<u8> img = MakeTestImage(20, 10, 2);
  std::vector<u8> out(img.size());
  Convolve3x3(img, 20, 10, apps::SobelXKernel(), 0, out);
  for (u32 x = 0; x < 20; ++x) {
    EXPECT_EQ(out[x], img[x]);
    EXPECT_EQ(out[9 * 20 + x], img[9 * 20 + x]);
  }
  for (u32 y = 0; y < 10; ++y) {
    EXPECT_EQ(out[y * 20], img[y * 20]);
    EXPECT_EQ(out[y * 20 + 19], img[y * 20 + 19]);
  }
}

TEST(Conv2dReferenceTest, BoxBlurOfConstantIsConstant) {
  std::vector<u8> img(15 * 15, 72);
  std::vector<u8> out(img.size());
  // Sum of 9 * 72 = 648; shift 3 -> 81. A true /9 would give 72, the
  // shift-8ths approximation gives 81: verify the exact arithmetic.
  Convolve3x3(img, 15, 15, apps::BoxBlurKernel(), 3, out);
  EXPECT_EQ(out[7 * 15 + 7], 81);
}

TEST(Conv2dReferenceTest, SobelFlatRegionsAreZero) {
  std::vector<u8> img(12 * 12, 100);
  std::vector<u8> out(img.size());
  Convolve3x3(img, 12, 12, apps::SobelXKernel(), 0, out);
  EXPECT_EQ(out[5 * 12 + 5], 0);  // no gradient, clamped at 0
}

TEST(Conv2dReferenceTest, SobelDetectsVerticalEdge) {
  // Left half dark, right half bright: strong response on the seam.
  const u32 w = 16, h = 8;
  std::vector<u8> img(w * h, 0);
  for (u32 y = 0; y < h; ++y) {
    for (u32 x = w / 2; x < w; ++x) img[y * w + x] = 200;
  }
  std::vector<u8> out(img.size());
  Convolve3x3(img, w, h, apps::SobelXKernel(), 0, out);
  EXPECT_EQ(out[3 * w + (w / 2 - 1)], 255);  // clamped strong edge
  EXPECT_EQ(out[3 * w + 2], 0);              // flat region
}

TEST(Conv2dReferenceTest, ClampsBothEnds) {
  std::vector<u8> img(9, 255);
  std::vector<u8> out(9);
  // All-positive kernel overflows 255 -> clamp high.
  Convolve3x3(img, 3, 3, apps::BoxBlurKernel(), 0, out);
  EXPECT_EQ(out[4], 255);
  // Negative kernel on bright image -> clamp low.
  const Conv3x3Kernel negative{-1, -1, -1, -1, -1, -1, -1, -1, -1};
  Convolve3x3(img, 3, 3, negative, 0, out);
  EXPECT_EQ(out[4], 0);
}

TEST(Conv2dReferenceTest, ExtremeCoefficientsMatchANaiveI64Loop) {
  // Any i32 kernel is exact: INT32_MIN and INT32_MAX taps at shifts 0,
  // 3 and 31 against the textbook loop with an i64 accumulator.
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  const Conv3x3Kernel kernels[] = {
      {kMin, kMin, kMin, kMin, kMin, kMin, kMin, kMin, kMin},
      {kMax, kMax, kMax, kMax, kMax, kMax, kMax, kMax, kMax},
      {kMax, kMin, kMax, kMin, kMax, kMin, kMax, kMin, kMax},
      {kMin, 0, kMax, 1, -1, 0, kMax, kMin, 2},
  };
  constexpr u32 kW = 29, kH = 9;
  const std::vector<u8> img = MakeTestImage(kW, kH, 5);
  usize unclamped = 0;
  for (const Conv3x3Kernel& kernel : kernels) {
    for (const u32 shift : {0u, 3u, 31u}) {
      std::vector<u8> expect = img;
      for (u32 y = 1; y + 1 < kH; ++y) {
        for (u32 x = 1; x + 1 < kW; ++x) {
          i64 acc = 0;
          for (u32 ky = 0; ky < 3; ++ky) {
            for (u32 kx = 0; kx < 3; ++kx) {
              acc += static_cast<i64>(kernel[ky * 3 + kx]) *
                     img[(y + ky - 1) * kW + (x + kx - 1)];
            }
          }
          acc = std::clamp<i64>(acc >> shift, 0, 255);
          unclamped += acc > 0 && acc < 255;
          expect[y * kW + x] = static_cast<u8>(acc);
        }
      }
      std::vector<u8> out(img.size());
      Convolve3x3(img, kW, kH, kernel, shift, out);
      EXPECT_EQ(out, expect) << "shift " << shift << " kernel[0] "
                             << kernel[0];
    }
  }
  EXPECT_GT(unclamped, 0u);  // not every pixel saturates
}

// ----- coprocessor vs reference across shapes -----

struct ConvShape {
  u32 width;
  u32 height;
};

class ConvCoprocessorTest : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvCoprocessorTest, BitExactAgainstReference) {
  const auto [width, height] = GetParam();
  const std::vector<u8> img = MakeTestImage(width, height, 7);
  const Conv3x3Kernel kernel = apps::EmbossKernel();

  std::vector<u8> expect(img.size());
  Convolve3x3(img, width, height, kernel, 0, expect);

  runtime::FpgaSystem sys(runtime::Epxa1Config());
  auto run = runtime::RunConv3x3Vim(sys, img, width, height, kernel, 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);

  // The sliding window: 3 parameters, 9 coefficients, one read per
  // frame-row pixel and three (one column) per middle-row pixel.
  const u64 w = width, h = height;
  EXPECT_EQ(run.value().report.imu.reads, 3 + 9 + 2 * w + 3 * w * (h - 2));
  EXPECT_EQ(run.value().report.imu.writes, w * h);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvCoprocessorTest,
    ::testing::Values(ConvShape{3, 3},      // minimal: border only + 1
                      ConvShape{16, 16},    // small
                      ConvShape{64, 64},    // 4 KB image
                      ConvShape{100, 37},   // non-power-of-two
                      ConvShape{2048, 8},   // one row = one page
                      ConvShape{4096, 6},   // row spans two pages
                      ConvShape{128, 128}   // 16 KB image = whole DP-RAM
                      ));

TEST(ConvCoprocessorTest, StridedWorkingSetPagesSanely) {
  // 2048-wide image: each row is exactly one 2 KB page, so the 3x3
  // window holds 3 source pages + 1 destination page live at once.
  const u32 w = 2048, h = 12;
  const std::vector<u8> img = MakeTestImage(w, h, 9);
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  auto run = runtime::RunConv3x3Vim(sys, img, w, h,
                                    apps::SharpenKernel(), 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const os::ExecutionReport& r = run.value().report;
  // 24 KB of image + 24 KB out on 16 KB of DP-RAM: must fault and
  // evict, but the raster pass sweeps those 4 pages in order, so every
  // page faults exactly once: 12 source + 12 destination + the
  // coefficients. Only the IN pages load.
  EXPECT_EQ(r.vim.faults, 25u);
  EXPECT_EQ(r.vim.loads, 13u);
}

TEST(ConvCoprocessorTest, ShiftsPastSixtyThreeSaturate) {
  // The shift is a caller's parameter (FPGA_EXECUTE parameter 2, or a
  // ring descriptor's): core and reference saturate it at 63, where an
  // i64 shift stops being defined one step later.
  const u32 w = 16, h = 8;
  const std::vector<u8> img = MakeTestImage(w, h, 1);
  std::vector<u8> want(img.size());
  Convolve3x3(img, w, h, apps::SharpenKernel(), 63, want);
  for (const u32 shift : {64u, 255u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(shift);
    std::vector<u8> out(img.size());
    Convolve3x3(img, w, h, apps::SharpenKernel(), shift, out);
    EXPECT_EQ(out, want);
    runtime::FpgaSystem sys(runtime::Epxa1Config());
    auto run = runtime::RunConv3x3Vim(sys, img, w, h, apps::SharpenKernel(),
                                      shift);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().output, want);
  }
}

TEST(ConvCoprocessorTest, ImageWithNoInteriorCopiesThrough) {
  // RunConv3x3Vim rejects such shapes, but a vcopd tenant may pass any
  // geometry: every pixel of a 2-wide image is a frame pixel, so the
  // core copies it through with one read and one write per pixel.
  using cp::Conv3x3Coprocessor;
  const u32 w = 2, h = 5;
  const std::vector<u8> img = MakeTestImage(w, h, 3);
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::Conv3x3Bitstream()).ok());
  auto src = sys.Allocate<u8>(w * h).value();
  src.Fill(img);
  auto dst = sys.Allocate<u8>(w * h).value();
  auto coeffs = sys.Allocate<u32>(9).value();
  ASSERT_TRUE(
      sys.Map(Conv3x3Coprocessor::kObjSrc, src, os::Direction::kIn).ok());
  ASSERT_TRUE(
      sys.Map(Conv3x3Coprocessor::kObjDst, dst, os::Direction::kOut).ok());
  ASSERT_TRUE(sys.Map(Conv3x3Coprocessor::kObjKernel, coeffs,
                      os::Direction::kIn).ok());
  auto report = sys.Execute({w, h, 0u});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(dst.ToVector(), img);
  EXPECT_EQ(report.value().imu.reads, 3u + 9u + w * h);
  EXPECT_EQ(report.value().imu.writes, w * h);
}

}  // namespace
}  // namespace vcop
