// Gates background cleaning (DESIGN.md §10, EXPERIMENTS.md E17) and
// writes BENCH_prefetch.json for CI. Eight points run under `prefetch`
// none and clean on the EPXA1: the streaming apps (adpcm, IDEA),
// vecadd, conv2d at two strides and the random gather, whose objects
// outgrow the dual-port RAM.
//
// Gates: every output is byte-identical to its software reference, and
// on every point `clean` finishes no later than `none` + 0.5%. Cleaning
// earns its place only if it never costs more than noise.
#include "bench/common.h"

namespace vcop {
namespace {

using bench::App;

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

/// Runs the point's job under `prefetch` none, then clean.
void RunMatrixPoint(const MatrixPoint& p, bench::Values& v) {
  const bench::Job job = bench::MakeJob(p.app, p.bytes, p.seed, p.conv_width);
  os::KernelConfig config = runtime::Epxa1Config();
  const bench::Point none = bench::RunPoint(config, job);
  config.vim.prefetch = os::PrefetchKind::kClean;
  const bench::Point clean = bench::RunPoint(config, job);
  v.Add(os::FieldsOf(none.vim), {"total_us", "vim.faults"}, "none")
      .Add(os::FieldsOf(clean.vim),
           {"total_us", "vim.faults", "vim.cleaned_pages", "vim.t_dp_wait_us"},
           "clean")
      .Real("clean_over_none",
            static_cast<double>(clean.vim.total) /
                static_cast<double>(none.vim.total),
            4)
      .Flag("outputs_exact", none.exact && clean.exact);
}

int Main() {
  bench::Bench bench("prefetch");
  std::vector<bench::Row> rows;
  for (const MatrixPoint& p : kPoints) {
    rows.push_back(
        {p.label, [&p](bench::Values& v) { RunMatrixPoint(p, v); }});
  }
  bench.Run(rows);
  return bench.Finish({{"", "outputs_exact", bench::Cmp::kEq, 1},
                       {"", "clean_over_none", bench::Cmp::kLe, 1.005}});
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
