// edge_detect — image processing on the coprocessor.
//
// Runs a Sobel edge detector over a 128x96 synthetic image on the 3x3
// convolution core, renders a small ASCII preview of input and output,
// and shows the strided-access paging behaviour: three source rows and
// one destination row live in the interface memory at once.
#include <cstdio>
#include <fstream>
#include <vector>

#include "apps/conv2d.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"

namespace vcop {
namespace {

void PrintAscii(const char* title, std::span<const u8> image, u32 width,
                u32 height) {
  // Downsample to a ~64x24 character cell preview.
  static constexpr char kRamp[] = " .:-=+*#%@";
  const u32 cols = 64, rows = 24;
  std::printf("%s\n", title);
  for (u32 r = 0; r < rows; ++r) {
    char line[cols + 1];
    for (u32 c = 0; c < cols; ++c) {
      const u32 x = c * width / cols;
      const u32 y = r * height / rows;
      const u8 v = image[static_cast<usize>(y) * width + x];
      line[c] = kRamp[v * 9 / 255];
    }
    line[cols] = '\0';
    std::printf("  %s\n", line);
  }
}

int Main() {
  constexpr u32 kWidth = 128, kHeight = 96;

  std::printf("edge_detect: Sobel on a %ux%u image (%u KB in + %u KB "
              "out on 16 KB of interface memory)\n\n",
              kWidth, kHeight, kWidth * kHeight / 1024,
              kWidth * kHeight / 1024);

  const std::vector<u8> image =
      apps::MakeTestImage(kWidth, kHeight, 2026);

  runtime::FpgaSystem sys(runtime::Epxa1Config());
  auto run = runtime::RunConv3x3Vim(sys, image, kWidth, kHeight,
                                    apps::SobelXKernel(), /*shift=*/0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());

  // Host reference cross-check.
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, kWidth, kHeight, apps::SobelXKernel(), 0,
                    expect);
  VCOP_CHECK_MSG(run.value().output == expect,
                 "coprocessor disagrees with reference convolution");

  PrintAscii("input:", image, kWidth, kHeight);
  std::printf("\n");
  PrintAscii("Sobel-x edges (coprocessor output):", run.value().output,
             kWidth, kHeight);

  std::printf("\nexecution:\n%s\n",
              runtime::DescribeDetailed(run.value().report).c_str());

  std::ofstream trace("edge_detect_trace.json");
  trace << sys.kernel().timeline().ToChromeTrace();
  std::printf(
      "wrote edge_detect_trace.json (%zu events — open in "
      "chrome://tracing or Perfetto)\n\n",
      sys.kernel().timeline().size());
  std::printf(
      "The 3x3 window keeps a three-row strip of the source resident; "
      "the VIM pages\nrows in and out as the window slides — no "
      "application-side tiling needed.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
