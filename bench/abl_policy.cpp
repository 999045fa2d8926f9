// Ablation E7a — replacement policies (§3.3): "When no page is
// available for allocation, several replacement policies are possible
// (e.g., first-in first-out, least recently used, random)."
//
// Compares FIFO / LRU / random on the two streaming kernels and on the
// gather stressor (random permutation: data-dependent page reuse, where
// the policies actually separate).
#include <cstdio>

#include "bench/common.h"

namespace vcop {
namespace {

struct PolicyNumbers {
  u64 faults = 0;
  u64 evictions = 0;
  Picoseconds total = 0;
};

PolicyNumbers RunGather(os::PolicyKind policy, u32 elements, u64 seed) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.policy = policy;
  config.vim.seed = seed;
  const os::ExecutionReport r = bench::RunGatherReport(config, elements, seed);
  return PolicyNumbers{r.vim.faults, r.vim.evictions, r.total};
}

int Main() {
  std::printf("== Ablation: page replacement policies (Section 3.3) ==\n\n");

  constexpr os::PolicyKind kPolicies[] = {
      os::PolicyKind::kFifo, os::PolicyKind::kLru, os::PolicyKind::kRandom,
      os::PolicyKind::kWsFifo};

  {
    Table table({"workload", "policy", "faults", "evictions", "total ms"});
    table.set_title(
        "streaming kernels (sequential access: policies nearly tie)");
    for (const os::PolicyKind policy : kPolicies) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.vim.policy = policy;
      const bench::Point a = bench::RunAdpcmPoint(config, 8192);
      table.AddRow({"adpcmdecode 8KB", std::string(ToString(policy)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          a.vim.vim.faults)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          a.vim.vim.evictions)),
                    runtime::Ms(a.vim.total)});
    }
    for (const os::PolicyKind policy : kPolicies) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.vim.policy = policy;
      const bench::Point p = bench::RunIdeaPoint(config, 32768);
      table.AddRow({"IDEA 32KB", std::string(ToString(policy)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.faults)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.vim.vim.evictions)),
                    runtime::Ms(p.vim.total)});
    }
    table.Print();
  }

  std::printf("\n");
  {
    Table table({"workload", "policy", "faults", "evictions", "total ms"});
    table.set_title(
        "gather stressor (random permutation over 3x dataset vs DP-RAM)");
    for (const u32 elements : {4096u, 8192u}) {
      for (const os::PolicyKind policy : kPolicies) {
        const PolicyNumbers n = RunGather(policy, elements, 7);
        table.AddRow(
            {StrFormat("gather %u KB", elements * 4 / 1024),
             std::string(ToString(policy)),
             StrFormat("%llu", static_cast<unsigned long long>(n.faults)),
             StrFormat("%llu",
                       static_cast<unsigned long long>(n.evictions)),
             runtime::Ms(n.total)});
      }
    }
    table.Print();
  }

  std::printf(
      "\nSequential kernels barely distinguish the policies (every page "
      "is used\nonce or twice); the data-dependent gather pattern "
      "separates them —\nmotivating §3.3's 'several replacement policies "
      "are possible' and the\noptimisation hints passed through "
      "FPGA_MAP_OBJECT flags.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
