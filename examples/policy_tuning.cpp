// policy_tuning — using the VIM's knobs (§3.3) on an irregular
// workload.
//
// Runs the gather coprocessor (out[i] = in[perm[i]]) under different
// replacement policies and access patterns, showing how a user would
// pick "optimisation hints passed as parameters to the OS services".
#include <cstdio>
#include <numeric>
#include <vector>

#include "base/rng.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"

namespace vcop {
namespace {

enum class Pattern { kSequential, kBlockShuffle, kRandom };

const char* Name(Pattern p) {
  switch (p) {
    case Pattern::kSequential: return "sequential";
    case Pattern::kBlockShuffle: return "block-shuffled";
    case Pattern::kRandom: return "random";
  }
  return "?";
}

std::vector<u32> MakePermutation(Pattern pattern, u32 n, u64 seed) {
  std::vector<u32> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng rng(seed);
  switch (pattern) {
    case Pattern::kSequential:
      break;
    case Pattern::kBlockShuffle: {
      // Shuffle 512-element blocks; locality within each block.
      const u32 block = 512;
      const u32 blocks = n / block;
      std::vector<u32> order(blocks);
      std::iota(order.begin(), order.end(), 0u);
      for (u32 i = blocks - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(i + 1)]);
      }
      for (u32 bi = 0; bi < blocks; ++bi) {
        for (u32 j = 0; j < block; ++j) {
          perm[bi * block + j] = order[bi] * block + j;
        }
      }
      break;
    }
    case Pattern::kRandom:
      for (u32 i = n - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
      }
      break;
  }
  return perm;
}

int Main() {
  constexpr u32 kElements = 6144;  // 24 KB in + 24 KB perm + 24 KB out

  std::printf("policy_tuning: gather over %u elements (3 x 24 KB working "
              "set on 16 KB of interface memory)\n\n",
              kElements);

  std::vector<u32> in(kElements);
  Rng rng(5);
  for (u32& v : in) v = static_cast<u32>(rng.Next());

  Table table({"access pattern", "policy", "faults", "evictions",
               "total ms"});
  for (const Pattern pattern :
       {Pattern::kSequential, Pattern::kBlockShuffle, Pattern::kRandom}) {
    const std::vector<u32> perm = MakePermutation(pattern, kElements, 11);
    for (const os::PolicyKind policy :
         {os::PolicyKind::kFifo, os::PolicyKind::kLru,
          os::PolicyKind::kRandom, os::PolicyKind::kWsFifo}) {
      os::KernelConfig config = runtime::Epxa1Config();
      config.vim.policy = policy;
      runtime::FpgaSystem sys(config);
      auto run = runtime::RunGatherVim(sys, in, perm);
      VCOP_CHECK_MSG(run.ok(), run.status().ToString());
      for (u32 i = 0; i < kElements; ++i) {
        VCOP_CHECK(run.value().output[i] == in[perm[i]]);
      }
      table.AddRow(
          {Name(pattern), std::string(ToString(policy)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 run.value().report.vim.faults)),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 run.value().report.vim.evictions)),
           runtime::Ms(run.value().report.total)});
    }
  }
  table.Print();

  std::printf(
      "\nReading the table:\n"
      " * sequential gathers behave like the paper's streaming kernels — "
      "any\n   policy works;\n"
      " * block-shuffled access keeps locality, where LRU's recency "
      "tracking\n   (fed by the IMU's TLB accessed bits) starts paying "
      "off;\n"
      " * fully random access thrashes every policy — the case for the "
      "paper's\n   §3.3 hints: an application that knows its pattern can "
      "tell the VIM;\n"
      " * wsfifo, the default, decides like FIFO on sequential faults, "
      "spares the\n   pages touched since the previous fault on random "
      "ones, and evicts the\n   least recently used page when a page it "
      "evicted after use comes back;\n   on random access here it takes "
      "fewer faults than LRU.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
