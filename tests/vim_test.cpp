// VIM-focused behavioural tests: replacement policies, copy modes,
// soft TLB refills when the TLB is smaller than the frame count,
// prefetching, direction hints and abort paths — all exercised through
// the kernel on real coprocessor runs.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "apps/workloads.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;
using runtime::RunVecAddVim;

std::vector<u32> Iota(u32 n, u32 start) {
  std::vector<u32> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

os::ExecutionReport RunLargeVecAdd(const os::KernelConfig& config,
                                   u32 n = 4096) {
  FpgaSystem sys(config);
  auto run = RunVecAddVim(sys, Iota(n, 1), Iota(n, 2));
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  // Functional correctness in every configuration.
  for (u32 i = 0; i < n; ++i) {
    VCOP_CHECK(run.value().output[i] == (i + 1) + (i + 2));
  }
  return run.value().report;
}

TEST(VimPolicyTest, AllPoliciesProduceCorrectResults) {
  for (const os::PolicyKind kind :
       {os::PolicyKind::kFifo, os::PolicyKind::kLru, os::PolicyKind::kRandom,
        os::PolicyKind::kWsFifo}) {
    os::KernelConfig config = Epxa1Config();
    config.vim.policy = kind;
    const os::ExecutionReport r = RunLargeVecAdd(config);
    EXPECT_GT(r.vim.evictions, 0u) << ToString(kind);
  }
}

TEST(VimPolicyTest, PoliciesDifferInFaultCounts) {
  // With a thrashing working set the three policies should not all
  // behave identically.
  std::set<u64> fault_counts;
  for (const os::PolicyKind kind :
       {os::PolicyKind::kFifo, os::PolicyKind::kLru, os::PolicyKind::kRandom,
        os::PolicyKind::kWsFifo}) {
    os::KernelConfig config = Epxa1Config();
    config.vim.policy = kind;
    fault_counts.insert(RunLargeVecAdd(config).vim.faults);
  }
  EXPECT_GE(fault_counts.size(), 2u)
      << "policies produced identical fault counts on a thrashing run";
}

TEST(VimCopyModeTest, SingleCopyReducesDpTime) {
  os::KernelConfig dbl = Epxa1Config();
  dbl.vim.copy_mode = mem::CopyMode::kDoubleCopy;
  os::KernelConfig sgl = Epxa1Config();
  sgl.vim.copy_mode = mem::CopyMode::kSingleCopy;
  const os::ExecutionReport rd = RunLargeVecAdd(dbl);
  const os::ExecutionReport rs = RunLargeVecAdd(sgl);
  EXPECT_LT(rs.t_dp, rd.t_dp);
  EXPECT_EQ(rs.vim.faults, rd.vim.faults) << "copy mode must not change paging";
  // Hardware time is unchanged up to per-fault clock-grid realignment
  // (the coprocessor resumes on its next rising edge after service).
  const double hw_ratio =
      static_cast<double>(rs.t_hw) / static_cast<double>(rd.t_hw);
  EXPECT_NEAR(hw_ratio, 1.0, 0.01);
}

TEST(VimTlbTest, TlbSmallerThanFramesCausesSoftRefills) {
  os::KernelConfig config = Epxa1Config();
  config.tlb_entries = 2;  // 8 frames but only 2 translations cached
  const os::ExecutionReport r = RunLargeVecAdd(config, /*n=*/1024);
  // vecadd cycles A/B/C pages; with 2 TLB entries the third object's
  // translation keeps falling out while its page stays resident.
  EXPECT_GT(r.vim.tlb_refills, 0u);
}

TEST(VimTlbTest, FullSizeTlbHasNoSoftRefills) {
  const os::ExecutionReport r = RunLargeVecAdd(Epxa1Config(), 1024);
  EXPECT_EQ(r.vim.tlb_refills, 0u);
}

TEST(VimPrefetchTest, SequentialPrefetchReducesFaults) {
  os::KernelConfig off = Epxa1Config();
  os::KernelConfig on = Epxa1Config();
  on.vim.prefetch = os::PrefetchKind::kSequential;
  on.vim.prefetch_depth = 1;
  const os::ExecutionReport r_off = RunLargeVecAdd(off);
  const os::ExecutionReport r_on = RunLargeVecAdd(on);
  EXPECT_LT(r_on.vim.faults, r_off.vim.faults);
  EXPECT_GT(r_on.vim.prefetched_pages, 0u);
}

TEST(VimDirectionTest, InPagesAreNeverWrittenBack) {
  const os::ExecutionReport r = RunLargeVecAdd(Epxa1Config());
  // Write-back volume must equal the OUT object's size exactly:
  // 4096 u32 = 16 KB; the two IN vectors are never written back.
  EXPECT_EQ(r.vim.bytes_written_back, 4096u * 4);
  EXPECT_EQ(r.vim.dirty_in_pages_dropped, 0u);
}

TEST(VimDirectionTest, OutPagesAreNeverLoaded) {
  const os::ExecutionReport r = RunLargeVecAdd(Epxa1Config());
  // Loads cover the two IN objects (2 x 16 KB) plus nothing for OUT.
  EXPECT_EQ(r.vim.bytes_loaded, 2u * 4096 * 4);
}

TEST(VimDirectionTest, InOutObjectsLoadAndWriteBack) {
  // Map the output as INOUT instead: its pages are now also loaded.
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  const u32 n = 4096;
  auto a = sys.Allocate<u32>(n);
  auto b = sys.Allocate<u32>(n);
  auto c = sys.Allocate<u32>(n);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  a.value().Fill(Iota(n, 1));
  b.value().Fill(Iota(n, 2));
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kInOut).ok());
  auto report = sys.Execute({n});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().vim.bytes_loaded, 3u * n * 4);
  EXPECT_EQ(report.value().vim.bytes_written_back, n * 4);
  EXPECT_EQ(c.value().ToVector()[7], (7u + 1) + (7u + 2));
}

TEST(VimAbortTest, OutOfBoundsAccessFailsExecution) {
  // Lie about the size: map exactly one page worth of elements but ask
  // the coprocessor to process one more. The overrunning access lands
  // on the *next* page, faults, and the VIM detects it is beyond the
  // object. (An overrun *within* the mapped page is invisible to the
  // translation hardware — same as on the real system.)
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  const u32 n = 2048 / 4;  // exactly one 2 KB page per vector
  auto a = sys.Allocate<u32>(n);
  auto b = sys.Allocate<u32>(n);
  auto c = sys.Allocate<u32>(n);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kOut).ok());
  auto report = sys.Execute({n + 1});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kOutOfRange);
  // The system recovers: a correct execution afterwards succeeds.
  auto retry = sys.Execute({n});
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(VimAbortTest, TooManyParametersRejectedUpFront) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  // 2 KB parameter page = 512 u32 params max.
  std::vector<u32> params(513, 0);
  auto report = sys.Execute(std::span<const u32>(params));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kInvalidArgument);
}

TEST(VimParamTest, ParamPageFrameIsReusedAfterRelease) {
  // With 8 frames and a 3x16KB dataset, the frame the parameters
  // occupied must return to circulation once the coprocessor releases
  // it (§3.2) — otherwise only 7 frames would serve data.
  const os::ExecutionReport r = RunLargeVecAdd(Epxa1Config());
  // All 8 frames end free after the run (end-of-operation sweep).
  FpgaSystem sys(Epxa1Config());
  auto run = RunVecAddVim(sys, Iota(64, 0), Iota(64, 0));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(sys.kernel().vim().page_manager().frames_in_use(), 0u);
  (void)r;
}

TEST(VimAccountingTest, TransferVolumesScaleWithFaults) {
  const os::ExecutionReport small = RunLargeVecAdd(Epxa1Config(), 1024);
  const os::ExecutionReport large = RunLargeVecAdd(Epxa1Config(), 8192);
  EXPECT_GT(large.vim.faults, small.vim.faults);
  EXPECT_GT(large.t_dp, small.t_dp);
  EXPECT_GT(large.vim.bytes_loaded, small.vim.bytes_loaded);
}

}  // namespace
}  // namespace vcop
