// Gates background cleaning (DESIGN.md §10, EXPERIMENTS.md E17) and
// writes BENCH_prefetch.json for CI. Eight points run under `prefetch`
// none and clean on the EPXA1: the streaming apps (adpcm, IDEA),
// vecadd, conv2d at two strides and the random gather, whose objects
// outgrow the dual-port RAM.
//
// Gates: every output is byte-identical to its software reference, and
// on every point `clean` finishes no later than `none` + 0.5%. Cleaning
// earns its place only if it never costs more than noise; any gate
// failure exits 1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "os/vim.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::App;

/// `clean` may finish at most this factor after `none` on any point.
constexpr double kCleanBound = 1.005;

struct MatrixPoint {
  const char* label;
  App app;
  u32 bytes;
  u64 seed;
  u32 conv_width = bench::kConvWidth;
};

constexpr MatrixPoint kPoints[] = {
    {"adpcm 8 KB", App::kAdpcm, 8 * 1024, bench::kWorkloadSeed},
    {"adpcm 32 KB", App::kAdpcm, 32 * 1024, bench::kWorkloadSeed},
    {"IDEA 32 KB", App::kIdea, 32 * 1024, bench::kWorkloadSeed},
    {"vecadd 4 KB", App::kVecAdd, 4 * 1024, 1},
    {"vecadd 16 KB", App::kVecAdd, 16 * 1024, 1},
    {"conv2d 1024x12", App::kConv, 1024 * 12, 1, 1024},
    {"conv2d 64x128", App::kConv, 64 * 128, 1, 64},
    {"gather 6144 words", App::kGather, 6144 * 4, 1},
};
constexpr os::PrefetchKind kKinds[] = {os::PrefetchKind::kNone,
                                       os::PrefetchKind::kClean};
constexpr usize kNumKinds = std::size(kKinds);

unsigned long long U(u64 v) { return static_cast<unsigned long long>(v); }

int Main() {
  std::printf("== background cleaning: clean vs none ==\n\n");
  int rc = 0;

  // Every (point, setting) run is an independent simulation: fan them
  // out over the fleet, then read them back in order.
  const std::vector<bench::Point> runs = sim::FleetMap<bench::Point>(
      std::size(kPoints) * kNumKinds, [](usize i) {
        const MatrixPoint& p = kPoints[i / kNumKinds];
        os::KernelConfig config = runtime::Epxa1Config();
        config.vim.prefetch = kKinds[i % kNumKinds];
        return bench::RunPoint(
            config, bench::MakeJob(p.app, p.bytes, p.seed, p.conv_width));
      });

  Table table({"point", "none ms", "none faults", "clean ms",
               "clean faults", "cleaned", "clean/none"});
  table.set_title("total time and hard faults by prefetch setting");
  std::string json_rows;
  for (usize i = 0; i < std::size(kPoints); ++i) {
    const MatrixPoint& p = kPoints[i];
    const bench::Point& none = runs[i * kNumKinds];
    const bench::Point& clean = runs[i * kNumKinds + 1];
    const bool exact = none.exact && clean.exact;
    const double ratio = static_cast<double>(clean.vim.total) /
                         static_cast<double>(none.vim.total);
    table.AddRow({p.label, runtime::Ms(none.vim.total),
                  StrFormat("%llu", U(none.vim.vim.faults)),
                  runtime::Ms(clean.vim.total),
                  StrFormat("%llu", U(clean.vim.vim.faults)),
                  StrFormat("%llu", U(clean.vim.vim.cleaned_pages)),
                  StrFormat("%.4f", ratio)});
    if (!exact) {
      std::printf("FAIL: %s output diverged from its reference\n", p.label);
      rc = 1;
    }
    if (ratio > kCleanBound) {
      std::printf("FAIL: %s under clean is %.4fx its time under none "
                  "(> %.3f)\n",
                  p.label, ratio, kCleanBound);
      rc = 1;
    }
    json_rows += StrFormat(
        "%s\n    {\"point\": \"%s\", \"none_us\": %.3f, \"none_faults\": "
        "%llu, \"clean_us\": %.3f, \"clean_faults\": %llu, \"cleaned\": "
        "%llu, \"clean_wait_us\": %.3f, \"clean_over_none\": %.4f, "
        "\"outputs_exact\": %s}",
        i == 0 ? "" : ",", p.label, ToMicroseconds(none.vim.total),
        U(none.vim.vim.faults), ToMicroseconds(clean.vim.total),
        U(clean.vim.vim.faults), U(clean.vim.vim.cleaned_pages),
        ToMicroseconds(clean.vim.vim.t_dp_wait), ratio,
        exact ? "true" : "false");
  }
  table.Print();
  std::printf("\n");

  std::FILE* f = std::fopen("BENCH_prefetch.json", "w");
  VCOP_CHECK_MSG(f != nullptr,
                 "cannot open BENCH_prefetch.json for writing");
  std::fprintf(f,
               "{\n  \"bench\": \"prefetch\",\n  \"clean_bound\": %.3f,\n"
               "  \"points\": [%s\n  ]\n}\n",
               kCleanBound, json_rows.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_prefetch.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
