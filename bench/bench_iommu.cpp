// E20 — zero-copy virtual-address DMA through the IOMMU (DESIGN.md
// §13). Writes BENCH_iommu.json.
//
// Sweeps adpcm and IDEA over the three transfer implementations (the
// paper's double copy, the announced single-copy fix and the zero-copy
// IOMMU path) at several input sizes, then gates the subsystem's whole
// contract:
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
#include "bench/common.h"
#include "os/vim.h"

namespace vcop {
namespace {

using bench::Cmp;
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

void RunRow(const char* app, const Mode& m, const bench::Job& job,
            bench::Values& v) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.copy_mode = m.copy_mode;
  v.Text("app", app).Count("bytes", job.input_bytes).Text("mode", m.label);
  const bench::Point p = bench::RunPoint(
      config, job, [&](FpgaSystem& sys, const bench::FreshRun& run) {
        const mem::TransferEngine& engine =
            sys.kernel().vim().transfer_engine();
        const u64 moved =
            run.report.vim.bytes_loaded + run.report.vim.bytes_written_back;
        const Picoseconds bound =
            DirectBound(engine, config.page_bytes, moved);
        v.Count("xfer.bounce_copies", engine.bounce_copies())
            .Count("xfer.zero_copy_bytes", engine.zero_copy_bytes())
            .Add(mem::FieldsOf(engine.iommu().stats()),
                 {"iommu.iotlb_hits", "iommu.iotlb_misses", "iommu.walks",
                  "iommu.pages_pinned", "iommu.shootdowns"})
            .Real("bound_ratio",
                  bound > 0 ? static_cast<double>(run.report.vim.t_dp) /
                                  static_cast<double>(bound)
                            : 0.0,
                  4);
      });
  v.Flag("outputs_exact", p.exact)
      .Add(os::FieldsOf(p.vim), {"vim.t_dp_ps", "total_ps"})
      .Real("speedup",
            p.vim.total > 0 ? static_cast<double>(p.sw) /
                                  static_cast<double>(p.vim.total)
                            : 0.0,
            3);
}

int Main() {
  const struct {
    const char* app;
    bench::App kind;
    std::vector<u32> sizes;
  } kApps[] = {{"adpcmdecode", bench::App::kAdpcm, {2048, 8192, 65536}},
               {"IDEA", bench::App::kIdea, {8192, 32768}}};
  std::vector<bench::Row> rows;
  std::vector<bench::Gate> gates = {{"", "outputs_exact", Cmp::kEq, 1}};
  for (const auto& a : kApps) {
    for (const u32 bytes : a.sizes) {
      for (const Mode& m : kModes) {
        const std::string label = StrFormat(
            "%s %s %s", a.app, bench::SizeLabel(bytes).c_str(), m.label);
        rows.push_back({label, [&a, bytes, &m](bench::Values& v) {
                          RunRow(a.app, m,
                                 bench::MakeJob(a.kind, bytes,
                                                bench::kWorkloadSeed),
                                 v);
                        }});
        if (m.copy_mode == mem::CopyMode::kIommu) {
          gates.push_back({label, "xfer.bounce_copies", Cmp::kEq, 0});
          continue;
        }
        for (const char* idle :
             {"iommu.walks", "iommu.pages_pinned", "iommu.shootdowns"}) {
          gates.push_back({label, idle, Cmp::kEq, 0});
        }
      }
    }
  }
  gates.push_back({"adpcmdecode 64 KB iommu", "bound_ratio", Cmp::kGt, 0});
  gates.push_back({"adpcmdecode 64 KB iommu", "bound_ratio", Cmp::kLe, 1.2});
  bench::Bench bench("iommu");
  bench.Run(rows);
  return bench.Finish(gates);
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
