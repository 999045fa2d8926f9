// E20 — zero-copy virtual-address DMA through the IOMMU (DESIGN.md
// §13). Writes BENCH_iommu.json.
//
// Sweeps adpcm and IDEA over the four transfer implementations (the
// paper's double copy, the announced single-copy fix, the DMA engine,
// and the zero-copy IOMMU path) at several input sizes, then gates the
// subsystem's whole contract on the exit code:
//
//   1. byte-exact outputs: every mode, every size, both applications
//      must reproduce the software reference bit-for-bit — the IOMMU
//      changes *when* bytes move, never *which* bytes;
//   2. zero bounce-buffer copies: with `iommu = on` no transfer may
//      fall back to a CPU-staged bounce buffer, even though the copy
//      mode underneath is the worst-case double copy;
//   3. transfer time at the bus bound: the large-input adpcm run's DP
//      management time must be <= 1.2x the raw AHB/DMA analytic bound
//      for the bytes it actually moved (the slack covers IO-TLB walks
//      and page-table bookkeeping);
//   4. `iommu = off` is inert: the Figure-7 VCD and the conv2d Chrome
//      trace must come out byte-identical whether the IOMMU knobs are
//      at their defaults or explicitly touched while the subsystem is
//      off. (Byte-identity against the *seed* artifacts is pinned
//      separately in CI via tests/golden/trace_artifacts.sha256.)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mem/iommu.h"
#include "os/vim.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

struct Mode {
  const char* label;
  mem::CopyMode copy_mode;
  bool iommu;
};

// The iommu row deliberately keeps kDoubleCopy underneath: if the
// zero-copy path ever fell through to the legacy engine, gate 2 would
// catch the bounce copies immediately.
constexpr Mode kModes[] = {
    {"double", mem::CopyMode::kDoubleCopy, false},
    {"single", mem::CopyMode::kSingleCopy, false},
    {"dma", mem::CopyMode::kDma, false},
    {"iommu", mem::CopyMode::kDoubleCopy, true},
};

struct Row {
  std::string app;
  usize bytes = 0;
  std::string mode;
  bool iommu = false;
  bool output_exact = false;
  u64 bounce_copies = 0;
  Picoseconds sw = 0;
  os::ExecutionReport report;
  mem::IommuStats iommu_stats;
  // DP management time over the raw AHB price of the bytes moved.
  double bound_ratio = 0.0;
};

os::KernelConfig ModeConfig(const Mode& m) {
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = m.copy_mode;
  config.vim.iommu = m.iommu;
  return config;
}

/// Raw AHB/DMA streaming price for `bytes`, paged like the VIM moves
/// them (whole DP pages plus one tail).
Picoseconds DirectBound(const mem::TransferEngine& engine, u32 page_bytes,
                        u64 bytes) {
  Picoseconds bound = 0;
  const u64 pages = bytes / page_bytes;
  bound += static_cast<Picoseconds>(pages) * engine.PriceDirect(page_bytes);
  if (bytes % page_bytes != 0)
    bound += engine.PriceDirect(static_cast<u32>(bytes % page_bytes));
  return bound;
}

Row RunRow(const char* app, const Mode& m, const bench::Job& job) {
  const os::KernelConfig config = ModeConfig(m);
  Row row;
  row.app = app;
  row.mode = m.label;
  row.iommu = m.iommu;
  const bench::Point p = bench::RunPoint(
      config, job, [&](FpgaSystem& sys, const bench::FreshRun& run) {
        os::Vim& vim = sys.kernel().vim();
        row.bounce_copies = vim.transfer_engine().bounce_copies();
        row.iommu_stats = vim.iommu().stats();
        const u64 moved =
            run.report.vim.bytes_loaded + run.report.vim.bytes_written_back;
        const Picoseconds bound =
            DirectBound(vim.transfer_engine(), config.page_bytes, moved);
        row.bound_ratio =
            bound > 0 ? static_cast<double>(run.report.vim.t_dp) /
                            static_cast<double>(bound)
                      : 0.0;
      });
  row.bytes = p.input_bytes;
  row.output_exact = p.exact;
  row.sw = p.sw;
  row.report = p.vim;
  return row;
}

// ----- `iommu = off` inertness -----

os::KernelConfig OffConfig(bool touch_knobs) {
  os::KernelConfig config = Epxa1Config();
  if (touch_knobs) {
    // Everything the subsystem exposes, set away from the defaults —
    // with iommu = off none of it may reach the artifact bytes.
    config.vim.iommu = false;
    config.vim.iotlb_entries = 1024;
  }
  return config;
}

// ----- JSON -----

void WriteJson(const std::vector<Row>& rows, bool exact, bool zero_bounce,
               double adpcm_large_ratio, bool bound_ok, bool off_inert,
               bool all_gates) {
  std::FILE* f = std::fopen("BENCH_iommu.json", "w");
  VCOP_CHECK_MSG(f != nullptr, "cannot open BENCH_iommu.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"iommu\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (usize i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const mem::IommuStats& s = r.iommu_stats;
    const double speedup =
        r.report.total > 0
            ? static_cast<double>(r.sw) / static_cast<double>(r.report.total)
            : 0.0;
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"bytes\": %zu, \"mode\": \"%s\", "
        "\"output_exact\": %s, \"bounce_copies\": %llu, "
        "\"t_dp_ps\": %llu, \"total_ps\": %llu, \"speedup\": %.3f, "
        "\"bound_ratio\": %.4f, \"iotlb_hits\": %llu, "
        "\"iotlb_misses\": %llu, \"zero_copy_bytes\": %llu}%s\n",
        r.app.c_str(), r.bytes, r.mode.c_str(),
        r.output_exact ? "true" : "false",
        static_cast<unsigned long long>(r.bounce_copies),
        static_cast<unsigned long long>(r.report.vim.t_dp),
        static_cast<unsigned long long>(r.report.total), speedup,
        r.bound_ratio, static_cast<unsigned long long>(s.iotlb_hits),
        static_cast<unsigned long long>(s.iotlb_misses),
        static_cast<unsigned long long>(s.zero_copy_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gates\": {\"outputs_byte_exact\": %s, "
               "\"zero_bounce_copies\": %s, "
               "\"adpcm_large_bound_ratio\": %.4f, "
               "\"adpcm_large_within_1_2x\": %s, "
               "\"iommu_off_inert\": %s},\n",
               exact ? "true" : "false", zero_bounce ? "true" : "false",
               adpcm_large_ratio, bound_ok ? "true" : "false",
               off_inert ? "true" : "false");
  std::fprintf(f, "  \"gates_pass\": %s\n", all_gates ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main() {
  std::printf("== zero-copy IOMMU DMA (DESIGN.md §13, E20) ==\n\n");

  constexpr u32 kAdpcmSizes[] = {2048u, 8192u, 65536u};
  constexpr u32 kIdeaSizes[] = {8192u, 32768u};
  constexpr usize kAdpcmLarge = 65536u;

  Table table({"app", "input", "mode", "SW(DP) ms", "total ms", "speedup",
               "bounce", "bus-bound x"});
  table.set_title(
      "four transfer implementations; 'bus-bound x' is DP time over the "
      "raw AHB streaming price of the bytes moved");

  std::vector<Row> rows;
  auto add = [&](const Row& row) {
    table.AddRow({row.app, bench::SizeLabel(row.bytes), row.mode,
                  runtime::Ms(row.report.vim.t_dp),
                  runtime::Ms(row.report.total),
                  runtime::Speedup(row.sw, row.report.total),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(row.bounce_copies)),
                  StrFormat("%.2f", row.bound_ratio)});
    rows.push_back(row);
  };
  for (const u32 bytes : kAdpcmSizes) {
    const bench::Job job =
        bench::MakeJob(bench::App::kAdpcm, bytes, bench::kWorkloadSeed);
    for (const Mode& m : kModes) add(RunRow("adpcmdecode", m, job));
  }
  for (const u32 bytes : kIdeaSizes) {
    const bench::Job job =
        bench::MakeJob(bench::App::kIdea, bytes, bench::kWorkloadSeed);
    for (const Mode& m : kModes) add(RunRow("IDEA", m, job));
  }
  table.Print();

  const bool vcd_inert =
      bench::Fig7Vcd(OffConfig(false)) == bench::Fig7Vcd(OffConfig(true));
  const bool trace_inert = bench::ConvChromeTrace(OffConfig(false)) ==
                           bench::ConvChromeTrace(OffConfig(true));

  bool exact = true;
  bool zero_bounce = true;
  double adpcm_large_ratio = 0.0;
  for (const Row& r : rows) {
    if (!r.output_exact) exact = false;
    if (r.iommu && r.bounce_copies != 0) zero_bounce = false;
    if (r.iommu && r.app == "adpcmdecode" && r.bytes == kAdpcmLarge)
      adpcm_large_ratio = r.bound_ratio;
  }
  const bool bound_ok = adpcm_large_ratio > 0.0 && adpcm_large_ratio <= 1.2;
  const bool off_inert = vcd_inert && trace_inert;

  std::printf("\nsummary:\n");
  bool pass = true;
  auto gate = [&](const char* name, bool ok) {
    std::printf("  %-52s %s\n", name, ok ? "pass" : "FAIL");
    if (!ok) pass = false;
  };
  gate("outputs byte-exact across all modes and sizes", exact);
  gate("zero bounce-buffer copies under iommu = on", zero_bounce);
  std::printf("  large adpcm DP time / raw AHB bound:             %.3fx\n",
              adpcm_large_ratio);
  gate("large adpcm within 1.2x of the raw AHB bound", bound_ok);
  gate("iommu = off inert (fig7 VCD byte-identical)", vcd_inert);
  gate("iommu = off inert (conv2d Chrome trace identical)", trace_inert);

  WriteJson(rows, exact, zero_bounce, adpcm_large_ratio, bound_ok, off_inert,
            pass);
  std::printf("wrote BENCH_iommu.json\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
