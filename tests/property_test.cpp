// Property-based suites: randomised workloads and platform
// configurations, checking that coprocessor results are always
// bit-exact against the software reference and that the VIM's internal
// invariants hold in every configuration.
//
// These are the tests that caught the out-page-reload bug during
// development: an OUT page evicted mid-run must be reloaded on its next
// fault or its earlier write-back gets clobbered.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/adpcm.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

/// Consistency assertions every successful execution must satisfy.
void CheckReportInvariants(const os::ExecutionReport& r) {
  EXPECT_EQ(r.total, r.t_hw + r.t_dp + r.t_imu + r.t_invoke);
  EXPECT_EQ(r.tlb.lookups, r.tlb.hits + r.tlb.misses);
  EXPECT_EQ(r.imu.accesses, r.imu.reads + r.imu.writes);
  // Every hard fault either used a free frame or evicted something.
  EXPECT_GE(r.vim.faults, r.vim.evictions);
  // Loads and write-backs only happen on faults/evictions/end sweep.
  EXPECT_LE(r.vim.loads, r.vim.faults + r.vim.prefetched_pages);
  EXPECT_EQ(r.vim.dirty_in_pages_dropped, 0u)
      << "shipped coprocessors never write IN objects";
}

// ----- Gather under randomised permutations and policies -----

struct GatherParam {
  GatherParam(u32 elements_, os::PolicyKind policy_, u64 seed_)
      : elements(elements_), policy(policy_), seed(seed_) {}

  u32 elements;
  os::PolicyKind policy;
  // gtest names each case after the raw bytes of its parameter, so the
  // padding after `policy` is spelled out and zeroed; left implicit it
  // holds stack garbage and the test names change from run to run.
  u8 padding[3] = {};
  u64 seed;
};
static_assert(sizeof(GatherParam) == 16, "test names encode 16 bytes");

class GatherPropertyTest
    : public ::testing::TestWithParam<GatherParam> {};

TEST_P(GatherPropertyTest, MatchesHostGather) {
  const GatherParam p = GetParam();
  const auto [in, perm] = apps::MakeRandomGather(p.elements, p.seed);

  os::KernelConfig config = Epxa1Config();
  config.vim.policy = p.policy;
  config.vim.seed = p.seed;
  FpgaSystem sys(config);
  auto run = runtime::RunGatherVim(sys, in, perm);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (u32 i = 0; i < p.elements; ++i) {
    ASSERT_EQ(run.value().output[i], in[perm[i]]) << i;
  }
  CheckReportInvariants(run.value().report);
  // A random permutation over >16 KB of data on a 16 KB interface
  // memory must thrash.
  if (p.elements * 4 * 3 > 16 * 1024) {
    EXPECT_GT(run.value().report.vim.evictions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GatherPropertyTest,
    ::testing::Values(
        GatherParam{256, os::PolicyKind::kFifo, 1},
        GatherParam{256, os::PolicyKind::kLru, 2},
        GatherParam{256, os::PolicyKind::kRandom, 3},
        GatherParam{3000, os::PolicyKind::kFifo, 4},
        GatherParam{3000, os::PolicyKind::kLru, 5},
        GatherParam{3000, os::PolicyKind::kRandom, 6},
        GatherParam{8192, os::PolicyKind::kFifo, 7},
        GatherParam{8192, os::PolicyKind::kLru, 8},
        GatherParam{8192, os::PolicyKind::kRandom, 9},
        GatherParam{256, os::PolicyKind::kWsFifo, 10},
        GatherParam{3000, os::PolicyKind::kWsFifo, 11},
        GatherParam{8192, os::PolicyKind::kWsFifo, 12}));

// ----- ADPCM across randomised platform configurations -----

struct PlatformParam {
  PlatformParam(u32 page_bytes_, u32 num_frames_, u32 tlb_entries_,
                bool pipelined_, os::PolicyKind policy_,
                mem::CopyMode copy_mode_, os::PrefetchKind prefetch_)
      : page_bytes(page_bytes_),
        num_frames(num_frames_),
        tlb_entries(tlb_entries_),
        pipelined(pipelined_),
        policy(policy_),
        copy_mode(copy_mode_),
        prefetch(prefetch_) {}

  u32 page_bytes;
  u32 num_frames;
  u32 tlb_entries;
  bool pipelined;
  os::PolicyKind policy;
  // Zeroed padding, as in GatherParam: the bytes are in the test names.
  u8 padding[2] = {};
  mem::CopyMode copy_mode;
  os::PrefetchKind prefetch;
  u8 tail_padding[3] = {};
};
static_assert(sizeof(PlatformParam) == 24, "test names encode 24 bytes");

class AdpcmPlatformPropertyTest
    : public ::testing::TestWithParam<PlatformParam> {};

TEST_P(AdpcmPlatformPropertyTest, BitExactOnEveryPlatformShape) {
  const PlatformParam p = GetParam();
  os::KernelConfig config = Epxa1Config();
  config.page_bytes = p.page_bytes;
  config.dp_ram_bytes = p.page_bytes * p.num_frames;
  config.tlb_entries = p.tlb_entries;
  config.imu_pipelined = p.pipelined;
  config.vim.policy = p.policy;
  config.vim.copy_mode = p.copy_mode;
  config.vim.prefetch = p.prefetch;

  const std::vector<u8> input = apps::MakeAdpcmStream(3000, 99);
  std::vector<i16> expect(6000);
  apps::AdpcmState s;
  apps::AdpcmDecode(input, expect, s);

  FpgaSystem sys(config);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);
  CheckReportInvariants(run.value().report);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdpcmPlatformPropertyTest,
    ::testing::Values(
        // Tiny pages, many frames.
        PlatformParam{512, 8, 8, false, os::PolicyKind::kFifo,
                      mem::CopyMode::kDoubleCopy, os::PrefetchKind::kNone},
        // Two frames only: maximal thrash (out needs 4x in!).
        PlatformParam{2048, 3, 3, false, os::PolicyKind::kLru,
                      mem::CopyMode::kDoubleCopy, os::PrefetchKind::kNone},
        // TLB smaller than frames: soft refills.
        PlatformParam{1024, 16, 4, false, os::PolicyKind::kFifo,
                      mem::CopyMode::kSingleCopy, os::PrefetchKind::kNone},
        // Pipelined IMU.
        PlatformParam{2048, 8, 8, true, os::PolicyKind::kFifo,
                      mem::CopyMode::kDoubleCopy, os::PrefetchKind::kNone},
        // Prefetching on, random policy.
        PlatformParam{2048, 8, 8, false, os::PolicyKind::kRandom,
                      mem::CopyMode::kDoubleCopy,
                      os::PrefetchKind::kSequential},
        // Big pages.
        PlatformParam{8192, 4, 4, false, os::PolicyKind::kLru,
                      mem::CopyMode::kSingleCopy,
                      os::PrefetchKind::kSequential}));

// ----- IDEA sizes x pipelining sweep -----

class IdeaSizePipelineTest
    : public ::testing::TestWithParam<std::tuple<usize, bool>> {};

TEST_P(IdeaSizePipelineTest, BitExactAndFasterWhenPipelined) {
  const auto [bytes, pipelined] = GetParam();
  os::KernelConfig config = Epxa1Config();
  config.imu_pipelined = pipelined;

  const auto keys = apps::IdeaExpandKey(apps::MakeIdeaKey(17));
  const std::vector<u8> input = apps::MakeRandomBytes(bytes, 18);
  std::vector<u8> expect(bytes);
  apps::IdeaCryptEcb(keys, input, expect);

  FpgaSystem sys(config);
  auto run = runtime::RunIdeaVim(sys, keys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);
  CheckReportInvariants(run.value().report);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndModes, IdeaSizePipelineTest,
    ::testing::Combine(::testing::Values<usize>(1024, 4096, 24576),
                       ::testing::Bool()));

// ----- Randomised vecadd sizes, including page-boundary straddlers -----

class VecAddSizeTest : public ::testing::TestWithParam<u32> {};

TEST_P(VecAddSizeTest, ExactAtAwkwardSizes) {
  const u32 n = GetParam();
  std::vector<u32> a(n), b(n);
  Rng rng(n);
  for (u32 i = 0; i < n; ++i) {
    a[i] = static_cast<u32>(rng.Next());
    b[i] = static_cast<u32>(rng.Next());
  }
  FpgaSystem sys(Epxa1Config());
  auto run = runtime::RunVecAddVim(sys, a, b);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (u32 i = 0; i < n; ++i) {
    ASSERT_EQ(run.value().output[i], a[i] + b[i]) << i;
  }
  CheckReportInvariants(run.value().report);
}

INSTANTIATE_TEST_SUITE_P(AwkwardSizes, VecAddSizeTest,
                         ::testing::Values(1, 2, 511, 512, 513, 1023, 1024,
                                           1025, 2047, 5000));

}  // namespace
}  // namespace vcop
