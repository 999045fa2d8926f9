// Ablation: strided working sets (the convolution domain, extension).
//
// A 3x3 convolution holds a three-row window of its source live. At
// constant pixel count, the image *width* sets how many interface pages
// that window spans — from a few bytes per row (many rows per page) to
// rows wider than the whole dual-port RAM. Interface virtualisation is
// exactly what absorbs this shape change: the application and the core
// are identical in every row of the table.
//
// The per-strategy fault columns show the same sweep through the
// DESIGN.md §10 prefetchers: demand paging (none), blind next-page
// prefetch (seq), and the confidence-gated adaptive detector (adapt).
#include <cstdio>

#include "apps/conv2d.h"
#include "base/table.h"
#include "os/vim.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"

namespace vcop {
namespace {

/// Faults of one conv2d run under `kind` (depth 2); the output is
/// checked against `expect`.
u64 FaultsUnder(os::PrefetchKind kind, const std::vector<u8>& image,
                u32 width, u32 height, const std::vector<u8>& expect,
                os::ExecutionReport* report = nullptr) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = kind;
  config.vim.prefetch_depth = 2;
  runtime::FpgaSystem sys(config);
  auto run = runtime::RunConv3x3Vim(sys, image, width, height,
                                    apps::SharpenKernel(), 0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  VCOP_CHECK_MSG(run.value().output == expect, "conv output mismatch");
  if (report != nullptr) *report = run.value().report;
  return run.value().report.vim.faults;
}

int Main() {
  std::printf(
      "== Ablation: image width vs paging behaviour (3x3 convolution, "
      "~48 K pixels, EPXA1) ==\n\n");

  Table table({"image", "row bytes", "3-row window", "faults",
               "compulsory", "seq", "adapt", "SW(DP) ms",
               "total ms"});
  table.set_title(
      "constant pixel count, varying stride (fault columns by prefetch "
      "strategy)");

  struct Shape {
    u32 width;
    u32 height;
  };
  for (const Shape shape : {Shape{64, 768}, Shape{256, 192},
                            Shape{1024, 48}, Shape{2048, 24},
                            Shape{4096, 12}, Shape{8192, 6}}) {
    const std::vector<u8> image =
        apps::MakeTestImage(shape.width, shape.height, 11);
    std::vector<u8> expect(image.size());
    apps::Convolve3x3(image, shape.width, shape.height,
                      apps::SharpenKernel(), 0, expect);

    os::ExecutionReport r;
    const u64 demand = FaultsUnder(os::PrefetchKind::kNone, image,
                                   shape.width, shape.height, expect, &r);
    const u64 seq = FaultsUnder(os::PrefetchKind::kSequential, image,
                                shape.width, shape.height, expect);
    const u64 adapt = FaultsUnder(os::PrefetchKind::kAdaptive, image,
                                  shape.width, shape.height, expect);
    // Every source and destination page once, plus the coefficients.
    const u32 compulsory =
        2 * ((static_cast<u32>(image.size()) + 2047) / 2048) + 1;
    table.AddRow(
        {StrFormat("%ux%u", shape.width, shape.height),
         StrFormat("%u", shape.width),
         StrFormat("%u B", 3 * shape.width),
         StrFormat("%llu", static_cast<unsigned long long>(demand)),
         StrFormat("%u", compulsory),
         StrFormat("%llu", static_cast<unsigned long long>(seq)),
         StrFormat("%llu", static_cast<unsigned long long>(adapt)),
         runtime::Ms(r.t_dp), runtime::Ms(r.total)});
  }
  table.Print();

  std::printf(
      "\nThe striking result is what does NOT change: across a 128x "
      "swing in row\nstride — including shapes whose three-row window "
      "(24 KB) exceeds the whole\ninterface memory — the fault count "
      "stays at or near the compulsory minimum.\nThe core makes one "
      "raster pass, so only one page per live row is hot at a\ntime. "
      "While the pages of three source rows and one destination row "
      "fit\nthe DP-RAM, each page faults exactly once; wider rows "
      "re-fault a source\npage only when a later row pass returns to "
      "it after eviction. The VIM\ndiscovers that working set by "
      "itself. A manual port would need a different\ntiling for every "
      "row in this table; here the application and the core are\n"
      "byte-identical (§2.2's argument, quantified).\n\nThe strategy "
      "columns add the cautionary tale: blind sequential prefetch\ncan "
      "*explode* the fault count when rows span multiple pages (its "
      "guesses\nevict the still-live window), while the confidence-gated "
      "adaptive detector\ntracks each row's stream separately and stays "
      "near the demand-paging figure.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
