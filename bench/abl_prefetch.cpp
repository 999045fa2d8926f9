// Ablation E7b — background work (§3.3): "speculative actions as
// prefetching could be used in order to avoid translation misses [...]
// the latter allowing overlapping of processor and coprocessor
// execution."
//
// Runs both streaming kernels with the `prefetch` setting off and at
// `clean`: background cleaning writes cold dirty pages back while the
// coprocessor computes. Speculative page loads are not modelled
// (DESIGN.md §10 records why they went).
#include <cstdio>

#include "bench/common.h"

namespace vcop {
namespace {

int Main() {
  std::printf(
      "== Ablation: background cleaning (Section 3.3 future work) ==\n\n");

  Table table({"app", "input", "mode", "faults", "cleaned", "SW(DP) ms",
               "overlapped ms", "total ms"});
  table.set_title("demand paging vs background cleaning");

  auto add = [&](const char* app, usize bytes, auto&& runner) {
    struct Mode {
      const char* name;
      os::PrefetchKind kind;
    };
    for (const Mode mode : {Mode{"off", os::PrefetchKind::kNone},
                            Mode{"clean", os::PrefetchKind::kClean}}) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.vim.prefetch = mode.kind;
      const bench::Point p = runner(config, bytes);
      table.AddRow({app, bench::SizeLabel(bytes), mode.name,
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.faults)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.cleaned_pages)),
                    runtime::Ms(p.vim.t_dp),
                    runtime::Ms(p.vim.vim.t_dp_overlapped),
                    runtime::Ms(p.vim.total)});
    }
  };
  add("adpcmdecode", 8192, bench::RunAdpcmPoint);
  add("IDEA", 32768, bench::RunIdeaPoint);
  table.Print();

  std::printf(
      "\nCleaning is the overlap the paper names (§3.3: 'allowing "
      "overlapping of\nprocessor and coprocessor execution'): write-backs "
      "of cold dirty pages\nrun while the coprocessor computes, "
      "collapsing the serial DP-management\ncolumn. The fault count does "
      "not move; only where the write-back time\nis spent does.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
