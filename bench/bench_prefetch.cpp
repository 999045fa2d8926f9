// Gates the §10 speculation machinery (DESIGN.md §10, EXPERIMENTS.md
// E17) and writes BENCH_prefetch.json for CI. Two deterministic
// scenarios:
//
//   conv2d     the interleaved-stream workload (three live image rows
//              plus the output row, each advancing +1 page) swept over
//              every prefetch setting with background work (clean,
//              sequential, adaptive), so the sweep isolates the
//              suggestion strategy itself. The adaptive
//              reference-prediction table must strictly beat the
//              sequential prefetcher on both fault count and
//              fault-service time.
//   streaming  adpcm + IDEA walk their objects purely sequentially, so
//              the adaptive detector must degrade gracefully: within
//              1% of the sequential prefetcher end to end.
//
// Every run must stay byte-identical to its software reference under
// every configuration; any gate failure exits 1.
#include <cstdio>
#include <vector>

#include "apps/conv2d.h"
#include "bench/common.h"
#include "os/vim.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using runtime::FpgaSystem;

constexpr os::PrefetchKind kKinds[] = {os::PrefetchKind::kClean,
                                       os::PrefetchKind::kSequential,
                                       os::PrefetchKind::kAdaptive};
constexpr usize kNumKinds = std::size(kKinds);

/// Per-kind aggregate over the conv2d shape sweep.
struct KindTotals {
  u64 faults = 0;
  u64 issued = 0;
  u64 useful = 0;
  u64 wasted = 0;
  Picoseconds service = 0;  // t_dp + t_imu: the VIM's software time
  Picoseconds total = 0;
  bool exact = true;
};

struct ConvOutcome {
  os::ExecutionReport report;
  bool exact = false;
};

ConvOutcome RunConvPoint(const os::KernelConfig& config, u32 width,
                         u32 height) {
  FpgaSystem sys(config);
  const std::vector<u8> image = apps::MakeTestImage(width, height, 11);
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, width, height, apps::SharpenKernel(), 0, expect);
  const auto run = runtime::RunConv3x3Vim(sys, image, width, height,
                                          apps::SharpenKernel(), 0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  ConvOutcome out;
  out.report = run.value().report;
  out.exact = run.value().output == expect;
  return out;
}

os::KernelConfig KindConfig(os::PrefetchKind kind) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = kind;
  config.vim.prefetch_depth = 2;
  return config;
}

int Main() {
  std::printf("== speculation: adaptive prefetch ==\n\n");
  int rc = 0;

  // ----- scenario 1: conv2d prefetch-kind sweep -----
  struct Shape {
    u32 width, height;
  };
  const Shape shapes[] = {{1024, 48}, {2048, 24}, {4096, 12}, {8192, 6}};

  Table conv_table({"image", "mode", "faults", "issued", "useful", "wasted",
                    "service ms", "total ms"});
  conv_table.set_title(
      "conv2d 3x3 (sharpen), overlap prefetch depth 2, by strategy");
  KindTotals totals[kNumKinds];
  // All (shape, strategy) points are independent simulations: fan them
  // out over the fleet, then aggregate in the original loop order.
  const std::vector<ConvOutcome> conv_runs = sim::FleetMap<ConvOutcome>(
      std::size(shapes) * kNumKinds, [&shapes](usize i) {
        const Shape& shape = shapes[i / kNumKinds];
        return RunConvPoint(KindConfig(kKinds[i % kNumKinds]), shape.width,
                            shape.height);
      });
  for (usize s = 0; s < std::size(shapes); ++s) {
    const Shape& shape = shapes[s];
    for (usize k = 0; k < kNumKinds; ++k) {
      const ConvOutcome& out = conv_runs[s * kNumKinds + k];
      const os::VimAccounting& vim = out.report.vim;
      totals[k].faults += vim.faults;
      totals[k].issued += vim.prefetched_pages;
      totals[k].useful += vim.prefetch_useful;
      totals[k].wasted += vim.prefetch_wasted;
      totals[k].service += out.report.t_dp + out.report.t_imu;
      totals[k].total += out.report.total;
      totals[k].exact &= out.exact;
      conv_table.AddRow(
          {StrFormat("%ux%u", shape.width, shape.height),
           std::string(ToString(kKinds[k])),
           StrFormat("%llu", static_cast<unsigned long long>(vim.faults)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(vim.prefetched_pages)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(vim.prefetch_useful)),
           StrFormat("%llu",
                     static_cast<unsigned long long>(vim.prefetch_wasted)),
           runtime::Ms(out.report.t_dp + out.report.t_imu),
           runtime::Ms(out.report.total)});
    }
  }
  conv_table.Print();
  const KindTotals& seq = totals[1];
  const KindTotals& adp = totals[2];
  std::printf(
      "\n  aggregate faults: clean %llu, sequential %llu, adaptive %llu\n"
      "  aggregate service: %.3f ms sequential vs %.3f ms adaptive\n\n",
      static_cast<unsigned long long>(totals[0].faults),
      static_cast<unsigned long long>(seq.faults),
      static_cast<unsigned long long>(adp.faults),
      static_cast<double>(seq.service) / 1e9,
      static_cast<double>(adp.service) / 1e9);
  for (usize k = 0; k < kNumKinds; ++k) {
    if (!totals[k].exact) {
      std::printf("FAIL: conv2d outputs diverged under %s prefetch\n",
                  std::string(ToString(kKinds[k])).c_str());
      rc = 1;
    }
  }
  if (adp.faults >= seq.faults) {
    std::printf(
        "FAIL: adaptive prefetch did not reduce conv2d faults "
        "(%llu vs %llu sequential)\n",
        static_cast<unsigned long long>(adp.faults),
        static_cast<unsigned long long>(seq.faults));
    rc = 1;
  }
  if (adp.service >= seq.service) {
    std::printf(
        "FAIL: adaptive prefetch did not reduce conv2d fault-service "
        "time\n");
    rc = 1;
  }

  // ----- scenario 2: streaming apps must stay within noise -----
  Table stream_table({"app", "mode", "faults", "issued", "total ms",
                      "vs sequential"});
  stream_table.set_title(
      "sequential workloads: adaptive must match the sequential "
      "prefetcher");
  struct StreamPoint {
    Picoseconds total = 0;
  };
  StreamPoint stream[2][kNumKinds];
  const char* stream_names[2] = {"adpcmdecode", "IDEA"};
  struct StreamRun {
    bench::Point adpcm;
    bench::Point idea;
  };
  const std::vector<StreamRun> stream_runs =
      sim::FleetMap<StreamRun>(kNumKinds, [](usize k) {
        return StreamRun{bench::RunAdpcmPoint(KindConfig(kKinds[k]), 8192),
                         bench::RunIdeaPoint(KindConfig(kKinds[k]), 32768)};
      });
  for (usize k = 0; k < kNumKinds; ++k) {
    stream[0][k].total = stream_runs[k].adpcm.vim.total;
    stream[1][k].total = stream_runs[k].idea.vim.total;
    const bench::Point* points[2] = {&stream_runs[k].adpcm,
                                     &stream_runs[k].idea};
    for (usize w = 0; w < 2; ++w) {
      const double ratio =
          stream[w][1].total > 0
              ? static_cast<double>(stream[w][k].total) /
                    static_cast<double>(stream[w][1].total)
              : 0.0;
      stream_table.AddRow(
          {stream_names[w], std::string(ToString(kKinds[k])),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 points[w]->vim.vim.faults)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 points[w]->vim.vim.prefetched_pages)),
           runtime::Ms(points[w]->vim.total),
           k >= 1 ? StrFormat("%.4fx", ratio) : std::string("-")});
    }
  }
  stream_table.Print();
  std::printf("\n");
  for (usize w = 0; w < 2; ++w) {
    const double ratio = static_cast<double>(stream[w][2].total) /
                         static_cast<double>(stream[w][1].total);
    if (ratio > 1.01) {
      std::printf(
          "FAIL: %s under adaptive prefetch is %.4fx the sequential time "
          "(> 1.01 tolerance)\n",
          stream_names[w], ratio);
      rc = 1;
    }
  }

  // ----- JSON -----
  std::FILE* f = std::fopen("BENCH_prefetch.json", "w");
  VCOP_CHECK_MSG(f != nullptr,
                 "cannot open BENCH_prefetch.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"prefetch\",\n  \"conv2d\": [");
  for (usize k = 0; k < kNumKinds; ++k) {
    std::fprintf(
        f,
        "%s\n    {\"mode\": \"%s\", \"faults\": %llu, \"issued\": %llu, "
        "\"useful\": %llu, \"wasted\": %llu, \"service_us\": %.3f, "
        "\"total_us\": %.3f, \"outputs_exact\": %s}",
        k == 0 ? "" : ",", std::string(ToString(kKinds[k])).c_str(),
        static_cast<unsigned long long>(totals[k].faults),
        static_cast<unsigned long long>(totals[k].issued),
        static_cast<unsigned long long>(totals[k].useful),
        static_cast<unsigned long long>(totals[k].wasted),
        ToMicroseconds(totals[k].service), ToMicroseconds(totals[k].total),
        totals[k].exact ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n  \"streaming\": {");
  for (usize w = 0; w < 2; ++w) {
    std::fprintf(f, "%s\n    \"%s\": {", w == 0 ? "" : ",",
                 stream_names[w]);
    for (usize k = 0; k < kNumKinds; ++k) {
      std::fprintf(f, "%s\"%s_us\": %.3f", k == 0 ? "" : ", ",
                   std::string(ToString(kKinds[k])).c_str(),
                   ToMicroseconds(stream[w][k].total));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_prefetch.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
