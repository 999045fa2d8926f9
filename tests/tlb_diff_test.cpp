// Differential harness for the flexible-memory work (per-object page
// sizes + two-level TLB hierarchy), in the style of
// fastforward_diff_test:
//
//  * With every new knob at its default (single CAM, platform page
//    size), the engine must be BIT-identical to the seed behaviour —
//    outputs, the full ExecutionReport decomposition, TlbStats and the
//    final simulated timestamp. The same holds for the trivial
//    non-default spellings of the defaults (l1_tlb_entries without an
//    L2; a per-object page override equal to the frame granule), which
//    must take the exact same code paths and RNG draws.
//
//  * With the hierarchy and superpages ON, outputs stay byte-identical
//    while only timing and statistics may diverge.
//
// The sweep covers 128 seeds x the four workloads (adpcm / IDEA /
// conv2d / gather) across the same platform ablations the fast-forward
// suite uses.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "hw/tlb.h"
#include "os/kernel.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

/// How the flexible-memory knobs are set for a run.
enum class MemMode {
  kDefault,         // seed behaviour: single CAM, platform pages
  kExplicitSingle,  // l1_tlb_entries spelled out, still no L2
  kGranulePages,    // per-object override == the frame granule
  kHierarchy,       // L1/L2 split at the same total entry budget
  kHierarchySuper,  // hierarchy + 4 KB superpages on every object
};

os::KernelConfig VariantConfig(u64 seed) {
  os::KernelConfig config = Epxa1Config();
  switch (seed % 4) {
    case 0:  // plain EPXA1
      break;
    case 1:  // adaptive prefetch + coalesced write-back
      config.vim.prefetch = os::PrefetchKind::kAdaptive;
      config.vim.coalesce_writeback = true;
      config.vim.prefetch_depth = 2;
      break;
    case 2:  // overlapped prefetch + coalesced write-back
      config.vim.prefetch = os::PrefetchKind::kSequential;
      config.vim.overlap_prefetch = true;
      config.vim.coalesce_writeback = true;
      break;
    default:  // posted writes + bounds check
      config.imu_posted_writes = true;
      config.imu_bounds_check = true;
      break;
  }
  return config;
}

os::KernelConfig MakeConfig(u64 seed, MemMode mode) {
  os::KernelConfig config = VariantConfig(seed / 4);
  switch (mode) {
    case MemMode::kDefault:
      break;
    case MemMode::kExplicitSingle:
      // No L2 means l1_tlb_entries is ignored; nothing may change.
      config.l1_tlb_entries = config.tlb_entries;
      break;
    case MemMode::kGranulePages:
      // Overrides equal to the frame granule are span-1 pages: the
      // allocator, prefetcher and RNG draws must be untouched.
      for (u32 id = 0; id + 1 < hw::kMaxObjects; ++id) {
        config.object_page_bytes[id] = config.page_bytes;
      }
      break;
    case MemMode::kHierarchy:
      config.l1_tlb_entries = 2;
      config.l2_tlb_entries = 6;
      break;
    case MemMode::kHierarchySuper:
      config.l1_tlb_entries = 2;
      config.l2_tlb_entries = 6;
      for (u32 id = 0; id + 1 < hw::kMaxObjects; ++id) {
        config.object_page_bytes[id] = 4096;
      }
      break;
  }
  return config;
}

struct DiffOutcome {
  std::vector<u8> output;
  os::ExecutionReport report;
  Picoseconds sim_now = 0;
  u64 l1_fills = 0;
};

template <typename T>
std::vector<u8> AsBytes(const std::vector<T>& v) {
  std::vector<u8> bytes(v.size() * sizeof(T));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// Runs workload `seed % 4` (adpcm / IDEA / conv2d / gather) on a fresh
/// system configured by MakeConfig(seed, mode).
DiffOutcome RunPoint(u64 seed, MemMode mode) {
  FpgaSystem sys(MakeConfig(seed, mode));
  DiffOutcome out;
  switch (seed % 4) {
    case 0: {
      const std::vector<u8> input =
          apps::MakeAdpcmStream(512 + (seed % 3) * 512, seed);
      auto run = runtime::RunAdpcmVim(sys, input);
      if (!run.ok()) throw std::runtime_error(run.status().ToString());
      out.output = AsBytes(run.value().output);
      out.report = run.value().report;
      break;
    }
    case 1: {
      const std::vector<u8> plain = apps::MakeRandomBytes(1024, seed);
      const apps::IdeaSubkeys subkeys =
          apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
      auto run = runtime::RunIdeaVim(sys, subkeys, plain);
      if (!run.ok()) throw std::runtime_error(run.status().ToString());
      out.output = AsBytes(run.value().output);
      out.report = run.value().report;
      break;
    }
    case 2: {
      const u32 width = 32, height = 16;
      const std::vector<u8> image = apps::MakeTestImage(width, height, seed);
      auto run = runtime::RunConv3x3Vim(sys, image, width, height,
                                        apps::BoxBlurKernel(), /*shift=*/3);
      if (!run.ok()) throw std::runtime_error(run.status().ToString());
      out.output = AsBytes(run.value().output);
      out.report = run.value().report;
      break;
    }
    default: {
      std::vector<u32> in(512), perm(512);
      Rng rng(seed);
      for (u32 i = 0; i < 512; ++i) {
        in[i] = static_cast<u32>(seed) * 2654435761u + i;
        perm[i] = static_cast<u32>(rng.NextInRange(0, 511));
      }
      auto run = runtime::RunGatherVim(sys, in, perm);
      if (!run.ok()) throw std::runtime_error(run.status().ToString());
      out.output = AsBytes(run.value().output);
      out.report = run.value().report;
      break;
    }
  }
  out.sim_now = sys.kernel().simulator().now();
  if (hw::Imu* imu = sys.kernel().imu()) {
    out.l1_fills = imu->xlat().stats().l1_fills;
  }
  return out;
}

void ExpectBitIdentical(const DiffOutcome& got, const DiffOutcome& ref,
                        u64 seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(got.output, ref.output);
  EXPECT_EQ(got.sim_now, ref.sim_now);
  const os::ExecutionReport& a = got.report;
  const os::ExecutionReport& b = ref.report;
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.t_hw, b.t_hw);
  EXPECT_EQ(a.t_dp, b.t_dp);
  EXPECT_EQ(a.t_imu, b.t_imu);
  EXPECT_EQ(a.t_invoke, b.t_invoke);
  EXPECT_EQ(a.cp_cycles, b.cp_cycles);
  EXPECT_EQ(a.tlb.lookups, b.tlb.lookups);
  EXPECT_EQ(a.tlb.hits, b.tlb.hits);
  EXPECT_EQ(a.tlb.misses, b.tlb.misses);
  EXPECT_EQ(a.tlb.parity_errors, b.tlb.parity_errors);
  EXPECT_EQ(a.tlb.installs, b.tlb.installs);
  EXPECT_EQ(a.imu.accesses, b.imu.accesses);
  EXPECT_EQ(a.imu.reads, b.imu.reads);
  EXPECT_EQ(a.imu.writes, b.imu.writes);
  EXPECT_EQ(a.imu.faults, b.imu.faults);
  EXPECT_EQ(a.imu.fault_stall_time, b.imu.fault_stall_time);
  EXPECT_EQ(a.imu.access_latency_time, b.imu.access_latency_time);
  EXPECT_EQ(a.vim.t_dp, b.vim.t_dp);
  EXPECT_EQ(a.vim.t_imu, b.vim.t_imu);
  EXPECT_EQ(a.vim.t_wakeup, b.vim.t_wakeup);
  EXPECT_EQ(a.vim.faults, b.vim.faults);
  EXPECT_EQ(a.vim.tlb_refills, b.vim.tlb_refills);
  EXPECT_EQ(a.vim.evictions, b.vim.evictions);
  EXPECT_EQ(a.vim.writebacks, b.vim.writebacks);
  EXPECT_EQ(a.vim.loads, b.vim.loads);
  EXPECT_EQ(a.vim.prefetched_pages, b.vim.prefetched_pages);
  EXPECT_EQ(a.vim.cleaned_pages, b.vim.cleaned_pages);
  EXPECT_EQ(a.vim.bytes_loaded, b.vim.bytes_loaded);
  EXPECT_EQ(a.vim.bytes_written_back, b.vim.bytes_written_back);
  EXPECT_EQ(a.vim.t_dp_overlapped, b.vim.t_dp_overlapped);
  EXPECT_EQ(a.vim.t_dp_wait, b.vim.t_dp_wait);
  EXPECT_EQ(a.vim.dirty_in_pages_dropped, b.vim.dirty_in_pages_dropped);
  EXPECT_EQ(a.vim.preemptions, b.vim.preemptions);
  EXPECT_EQ(a.vim.fault_recoveries, b.vim.fault_recoveries);
  EXPECT_EQ(a.vim.prefetch_useful, b.vim.prefetch_useful);
  EXPECT_EQ(a.vim.prefetch_wasted, b.vim.prefetch_wasted);
  EXPECT_EQ(a.vim.prefetch_suggestions_dropped,
            b.vim.prefetch_suggestions_dropped);
  EXPECT_EQ(a.vim.coalesced_bursts, b.vim.coalesced_bursts);
  EXPECT_EQ(a.vim.coalesced_pages, b.vim.coalesced_pages);
  EXPECT_EQ(a.vim.fault_service_us.count(), b.vim.fault_service_us.count());
  EXPECT_EQ(a.vim.fault_service_us.sum(), b.vim.fault_service_us.sum());
  EXPECT_EQ(a.vim.fault_service_us.min(), b.vim.fault_service_us.min());
  EXPECT_EQ(a.vim.fault_service_us.max(), b.vim.fault_service_us.max());
}

constexpr u64 kDiffSeeds = 128;

struct SeedRuns {
  DiffOutcome base;
  DiffOutcome explicit_single;
  DiffOutcome granule_pages;
  DiffOutcome hierarchy;
  DiffOutcome hierarchy_super;
};

TEST(TlbDiffTest, FlexibleMemoryOffIsBitIdenticalAndOnIsOutputIdentical) {
  const std::vector<SeedRuns> runs = sim::FleetMap<SeedRuns>(
      kDiffSeeds, [](usize i) -> SeedRuns {
        const u64 seed = static_cast<u64>(i) + 1;
        return SeedRuns{RunPoint(seed, MemMode::kDefault),
                        RunPoint(seed, MemMode::kExplicitSingle),
                        RunPoint(seed, MemMode::kGranulePages),
                        RunPoint(seed, MemMode::kHierarchy),
                        RunPoint(seed, MemMode::kHierarchySuper)};
      });
  u64 total_l1_fills = 0;
  for (usize i = 0; i < runs.size(); ++i) {
    const u64 seed = static_cast<u64>(i) + 1;
    // The trivial spellings must be indistinguishable from the seed
    // engine down to every timestamp and counter.
    ExpectBitIdentical(runs[i].explicit_single, runs[i].base, seed);
    ExpectBitIdentical(runs[i].granule_pages, runs[i].base, seed);
    // The hierarchy and superpages may only change timing and stats.
    {
      SCOPED_TRACE("seed " + std::to_string(seed));
      EXPECT_EQ(runs[i].hierarchy.output, runs[i].base.output);
      EXPECT_EQ(runs[i].hierarchy_super.output, runs[i].base.output);
      EXPECT_EQ(runs[i].base.l1_fills, 0u);
    }
    total_l1_fills += runs[i].hierarchy.l1_fills;
  }
  // The hierarchy must actually engage across the sweep: the tiny L1
  // spills and refills from L2.
  EXPECT_GT(total_l1_fills, 0u);
}

}  // namespace
}  // namespace vcop
