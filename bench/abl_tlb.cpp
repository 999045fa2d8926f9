// Ablation E9 — IMU design space (§3.2): TLB entry count and page size.
//
// The EPXA1 system pairs an 8-entry TLB with eight 2 KB pages (one
// entry per frame). This bench separates the two dimensions:
//   * fewer TLB entries than frames -> soft refills (the page is
//     resident but its translation fell out of the CAM),
//   * page size trades fault count against per-fault transfer size.
#include <cstdio>

#include "bench/common.h"

namespace vcop {
namespace {

int Main() {
  std::printf("== Ablation: TLB entries and page size (IMU design space) "
              "==\n\n");

  {
    Table table({"TLB entries", "faults", "TLB refills", "SW(IMU) ms",
                 "total ms"});
    table.set_title(
        "adpcmdecode 8 KB, 8 x 2 KB frames, varying CAM size");
    for (const u32 entries : {2u, 3u, 4u, 8u, 16u}) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.tlb_entries = entries;
      const bench::Point p = bench::RunAdpcmPoint(config, 8192);
      table.AddRow({StrFormat("%u", entries),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.faults)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.tlb_refills)),
                    runtime::Ms(p.vim.t_imu), runtime::Ms(p.vim.total)});
    }
    table.Print();
  }

  std::printf("\n");
  {
    Table table({"page size", "frames", "faults", "bytes moved",
                 "SW(DP) ms", "total ms"});
    table.set_title("IDEA 32 KB, 16 KB DP-RAM, varying page size");
    for (const u32 page : {512u, 1024u, 2048u, 4096u, 8192u}) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.page_bytes = page;
      // Keep the total interface memory fixed at 16 KB.
      config.tlb_entries = std::max(8u, config.dp_ram_bytes / page);
      const bench::Point p = bench::RunIdeaPoint(config, 32768);
      table.AddRow(
          {StrFormat("%u B", page),
           StrFormat("%u", config.dp_ram_bytes / page),
           StrFormat("%llu",
                     static_cast<unsigned long long>(p.vim.vim.faults)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 p.vim.vim.bytes_loaded +
                                 p.vim.vim.bytes_written_back)),
           runtime::Ms(p.vim.t_dp), runtime::Ms(p.vim.total)});
    }
    table.Print();
  }

  std::printf("\n");
  {
    // Flexible memory (DESIGN.md §14): the page size becomes per-object.
    // Only the streaming in/out objects (ids 0 and 1) take the
    // override; the key object keeps the granule.
    Table table({"object pages", "faults", "TLB refills", "total ms"});
    table.set_title("IDEA 32 KB, per-object page size, 8-entry CAM");
    for (const u32 page : {2048u, 4096u, 8192u}) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.object_page_bytes[0] = page;
      config.object_page_bytes[1] = page;
      const bench::Point p = bench::RunIdeaPoint(config, 32768);
      table.AddRow(
          {StrFormat("%u B", page),
           StrFormat("%llu",
                     static_cast<unsigned long long>(p.vim.vim.faults)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 p.vim.vim.tlb_refills)),
           runtime::Ms(p.vim.total)});
    }
    table.Print();
  }

  std::printf(
      "\nObservations:\n"
      " * a CAM smaller than the frame count converts some hard faults "
      "into\n   cheap TLB refills but pays one interrupt per refill — the "
      "EPXA1's\n   one-entry-per-frame choice avoids refills entirely.\n"
      " * smaller pages mean more faults but the same data volume; "
      "per-fault\n   fixed costs (interrupt, decode, burst setup) favour "
      "the 2 KB point\n   for these streaming kernels.\n"
      " * per-object 4 KB superpages on the streaming buffers halve the "
      "fault\n   count without shrinking the small objects' residency. "
      "8 KB pages\n   overshoot: two 4-frame spans plus the key and "
      "parameter pages exceed\n   the eight frames and the working set "
      "thrashes — the right page size\n   is a per-object, per-working-set "
      "choice.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
