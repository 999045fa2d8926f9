// E20 — zero-copy virtual-address DMA through the IOMMU (DESIGN.md
// §13). Writes BENCH_iommu.json.
//
// Sweeps adpcm and IDEA over the three transfer implementations (the
// paper's double copy, the announced single-copy fix and the zero-copy
// IOMMU path) at several input sizes, then gates the subsystem's whole
// contract on the exit code:
//
//   1. byte-exact outputs: every mode, every size, both applications
//      must reproduce the software reference bit-for-bit — the IOMMU
//      changes *when* bytes move, never *which* bytes;
//   2. zero bounce-buffer copies: with `copy_mode = iommu` no transfer
//      may fall back to a CPU-staged bounce buffer;
//   3. transfer time at the bus bound: the large-input adpcm run's DP
//      management time must be <= 1.2x the raw AHB/DMA analytic bound
//      for the bytes it actually moved (the slack covers IO-TLB walks
//      and page-table bookkeeping);
//   4. the IOMMU is idle in the other modes: the double and single
//      rows walk no page table, pin no user page and shoot down
//      nothing. (Their artifacts are pinned byte for byte by the
//      trace_artifact_goldens and paper_table_goldens tests.)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "os/vim.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

struct Mode {
  const char* label;
  mem::CopyMode copy_mode;
};

constexpr Mode kModes[] = {
    {"double", mem::CopyMode::kDoubleCopy},
    {"single", mem::CopyMode::kSingleCopy},
    {"iommu", mem::CopyMode::kIommu},
};

struct Row {
  std::string app;
  usize bytes = 0;
  std::string mode;
  bool iommu = false;
  bool output_exact = false;
  u64 bounce_copies = 0;
  u64 zero_copy_bytes = 0;
  Picoseconds sw = 0;
  os::ExecutionReport report;
  mem::IommuStats iommu_stats;
  // DP management time over the raw AHB price of the bytes moved.
  double bound_ratio = 0.0;
};

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
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = m.copy_mode;
  Row row;
  row.app = app;
  row.mode = m.label;
  row.iommu = m.copy_mode == mem::CopyMode::kIommu;
  const bench::Point p = bench::RunPoint(
      config, job, [&](FpgaSystem& sys, const bench::FreshRun& run) {
        const mem::TransferEngine& engine =
            sys.kernel().vim().transfer_engine();
        row.bounce_copies = engine.bounce_copies();
        row.zero_copy_bytes = engine.zero_copy_bytes();
        row.iommu_stats = engine.iommu().stats();
        const u64 moved =
            run.report.vim.bytes_loaded + run.report.vim.bytes_written_back;
        const Picoseconds bound =
            DirectBound(engine, config.page_bytes, moved);
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

// ----- JSON -----

void WriteJson(const std::vector<Row>& rows, bool exact, bool zero_bounce,
               double adpcm_large_ratio, bool bound_ok, bool idle_elsewhere,
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
        static_cast<unsigned long long>(r.zero_copy_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"gates\": {\"outputs_byte_exact\": %s, "
               "\"zero_bounce_copies\": %s, "
               "\"adpcm_large_bound_ratio\": %.4f, "
               "\"adpcm_large_within_1_2x\": %s, "
               "\"iommu_idle_in_other_modes\": %s},\n",
               exact ? "true" : "false", zero_bounce ? "true" : "false",
               adpcm_large_ratio, bound_ok ? "true" : "false",
               idle_elsewhere ? "true" : "false");
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
      "three transfer implementations; 'bus-bound x' is DP time over the "
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

  bool exact = true;
  bool zero_bounce = true;
  bool idle_elsewhere = true;
  double adpcm_large_ratio = 0.0;
  for (const Row& r : rows) {
    if (!r.output_exact) exact = false;
    if (r.iommu && r.bounce_copies != 0) zero_bounce = false;
    const mem::IommuStats& s = r.iommu_stats;
    if (!r.iommu &&
        (s.walks != 0 || s.pages_pinned != 0 || s.shootdowns != 0)) {
      idle_elsewhere = false;
    }
    if (r.iommu && r.app == "adpcmdecode" && r.bytes == kAdpcmLarge)
      adpcm_large_ratio = r.bound_ratio;
  }
  const bool bound_ok = adpcm_large_ratio > 0.0 && adpcm_large_ratio <= 1.2;

  std::printf("\nsummary:\n");
  bool pass = true;
  auto gate = [&](const char* name, bool ok) {
    std::printf("  %-52s %s\n", name, ok ? "pass" : "FAIL");
    if (!ok) pass = false;
  };
  gate("outputs byte-exact across all modes and sizes", exact);
  gate("zero bounce-buffer copies under copy_mode = iommu", zero_bounce);
  std::printf("  large adpcm DP time / raw AHB bound:             %.3fx\n",
              adpcm_large_ratio);
  gate("large adpcm within 1.2x of the raw AHB bound", bound_ok);
  gate("IOMMU idle in the double and single rows", idle_elsewhere);

  WriteJson(rows, exact, zero_bounce, adpcm_large_ratio, bound_ok,
            idle_elsewhere, pass);
  std::printf("wrote BENCH_iommu.json\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
