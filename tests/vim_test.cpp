// VIM-focused behavioural tests: replacement policies, copy modes,
// soft TLB refills when the TLB is smaller than the frame count,
// background cleaning, direction hints and abort paths — all exercised through
// the kernel on real coprocessor runs.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <set>
#include <string>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/fault.h"
#include "bench/common.h"
#include "cp/adpcm_cp.h"
#include "cp/gather_cp.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "os/vcopd.h"
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

// ----- re-loads from the kernel's bounce copy -----

/// 24 KB objects: 1.5x the 16 KB dual-port RAM, 12 pages each.
constexpr u32 kGatherElements = 6144;
constexpr u64 kGatherPages = kGatherElements * 4 / 2048;
/// First loads of a gather: every page of its two IN objects (in and
/// perm) once. The OUT object's pages load only after a write-back, so
/// each of its loads is already a re-load.
constexpr u64 kGatherFirstLoads = 2 * kGatherPages;

apps::GatherInput MakeGather(u64 seed) {
  return apps::MakeRandomGather(kGatherElements, seed);
}

/// Runs the gather on `sys` and checks its output against the input.
os::ExecutionReport RunGather(FpgaSystem& sys, const apps::GatherInput& g) {
  auto run = runtime::RunGatherVim(sys, g.in, g.perm);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  for (u32 i = 0; i < kGatherElements; ++i) {
    VCOP_CHECK(run.value().output[i] == g.in[g.perm[i]]);
  }
  return run.value().report;
}

/// t_dp of a fault-free run without background work: each first load and
/// each write-back pays PriceTransfer, each re-load PriceReload (2 KB
/// pages).
Picoseconds ExpectedDpTime(FpgaSystem& sys, const os::ExecutionReport& r) {
  const mem::TransferEngine& engine = sys.kernel().vim().transfer_engine();
  const u64 full = r.vim.loads - r.vim.kernel_copy_loads + r.vim.writebacks;
  return full * engine.PriceTransfer(2048) +
         r.vim.kernel_copy_loads * engine.PriceReload(2048);
}

TEST(VimReloadTest, EachTransferModePricesFirstLoadsAndReloads) {
  const apps::GatherInput g = MakeGather(11);
  std::optional<os::ExecutionReport> base;
  for (const mem::CopyMode mode :
       {mem::CopyMode::kDoubleCopy, mem::CopyMode::kSingleCopy,
        mem::CopyMode::kDma, mem::CopyMode::kIommu}) {
    SCOPED_TRACE(std::string(mem::ToString(mode)));
    os::KernelConfig config = Epxa1Config();
    // FIFO keeps evicting the OUT pages mid-run, so their re-loads are
    // priced too. The default evicts least recently used pages on
    // re-faults and writes back exactly the 12 OUT pages.
    config.vim.policy = os::PolicyKind::kFifo;
    config.vim.copy_mode = mode;
    FpgaSystem sys(config);
    const os::ExecutionReport r = RunGather(sys, g);
    // The transfer path never changes paging.
    if (!base.has_value()) base = r;
    EXPECT_EQ(r.vim.faults, base->vim.faults);
    EXPECT_EQ(r.vim.evictions, base->vim.evictions);
    EXPECT_EQ(r.vim.loads, base->vim.loads);
    EXPECT_EQ(r.vim.writebacks, base->vim.writebacks);
    EXPECT_GT(r.vim.loads, 2 * kGatherFirstLoads) << "the gather must thrash";
    // More write-backs than the OUT object's pages: OUT pages went back
    // to user memory mid-run and faulted again. Their reloads found the
    // copy the write-back left, so they count among the re-loads below.
    EXPECT_GT(r.vim.writebacks, kGatherPages);
    if (mode == mem::CopyMode::kIommu) {
      // Zero-copy DMA keeps no bounce copy to re-load from.
      EXPECT_EQ(r.vim.kernel_copy_loads, 0u);
      EXPECT_EQ(sys.kernel().vim().transfer_engine().bounce_copies(), 0u);
      continue;
    }
    const bool double_copy = mode == mem::CopyMode::kDoubleCopy;
    EXPECT_EQ(r.vim.kernel_copy_loads,
              double_copy ? r.vim.loads - kGatherFirstLoads : 0u);
    EXPECT_EQ(r.t_dp, ExpectedDpTime(sys, r));
  }
}

TEST(VimReloadTest, SecondExecutionReadsARewrittenInBufferAtFullPrice) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::GatherBitstream()).ok());
  const apps::GatherInput g = MakeGather(13);
  auto in = sys.Allocate<u32>(kGatherElements);
  auto out = sys.Allocate<u32>(kGatherElements);
  auto perm = sys.Allocate<u32>(kGatherElements);
  ASSERT_TRUE(in.ok() && out.ok() && perm.ok());
  in.value().Fill(g.in);
  perm.value().Fill(g.perm);
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjIn, in.value(),
                      os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjOut, out.value(),
                      os::Direction::kOut).ok());
  ASSERT_TRUE(sys.Map(cp::GatherCoprocessor::kObjPerm, perm.value(),
                      os::Direction::kIn).ok());
  auto first = sys.Execute({kGatherElements});
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The caller rewrites the IN buffer between the two calls.
  std::vector<u32> rewritten(kGatherElements);
  for (u32 i = 0; i < kGatherElements; ++i) rewritten[i] = ~g.in[i] ^ i;
  in.value().Fill(rewritten);
  auto second = sys.Execute({kGatherElements});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::vector<u32> got = out.value().ToVector();
  for (u32 i = 0; i < kGatherElements; ++i) {
    ASSERT_EQ(got[i], rewritten[g.perm[i]]) << "element " << i;
  }
  // The bounce copies died with the first execution, so the second
  // pays the full price on every first load again, exactly like the
  // first.
  const os::ExecutionReport& a = first.value();
  const os::ExecutionReport& b = second.value();
  EXPECT_EQ(b.vim.loads, a.vim.loads);
  EXPECT_EQ(a.vim.kernel_copy_loads, a.vim.loads - kGatherFirstLoads);
  EXPECT_EQ(b.vim.kernel_copy_loads, a.vim.kernel_copy_loads);
  EXPECT_EQ(b.t_dp, a.t_dp);
}

TEST(VimReloadTest, ObjectTableChangeMidRunDropsTheBounceCopies) {
  const apps::GatherInput g = MakeGather(14);
  FpgaSystem clean_sys(Epxa1Config());
  const os::ExecutionReport clean = RunGather(clean_sys, g);

  // Half-way through the run, re-point the IN object at the address it
  // already has: the data is unchanged, but the table moved, so the
  // copies no longer count and later loads pay the full price.
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::GatherBitstream()).ok());
  os::Kernel& kernel = sys.kernel();
  kernel.simulator().ScheduleAfter(clean.total / 2, [&kernel] {
    const os::MappedObject* in =
        kernel.vim().objects().Find(cp::GatherCoprocessor::kObjIn);
    VCOP_CHECK(in != nullptr);
    VCOP_CHECK(kernel.vim()
                   .objects()
                   .Repoint(cp::GatherCoprocessor::kObjIn, in->user_addr)
                   .ok());
  });
  const os::ExecutionReport r = RunGather(sys, g);  // exact
  EXPECT_EQ(r.vim.faults, clean.vim.faults);
  EXPECT_EQ(r.vim.loads, clean.vim.loads);
  EXPECT_GT(r.vim.kernel_copy_loads, 0u);
  EXPECT_LT(r.vim.kernel_copy_loads, clean.vim.kernel_copy_loads);
  EXPECT_EQ(r.t_dp, ExpectedDpTime(sys, r));
}

/// The AHB-error opportunity (the transfer attempt, counted from 1)
/// that the bus-error tests fail: deep in the thrash, a re-load.
constexpr u64 kReloadAttempt = 200;

TEST(VimReloadTest, BusErrorOnAReloadRetriesAtTheReloadPrice) {
  const apps::GatherInput g = MakeGather(15);
  FpgaSystem clean_sys(Epxa1Config());
  const os::ExecutionReport clean = RunGather(clean_sys, g);

  FaultPlan plan;
  plan.At(FaultSite::kAhbError, kReloadAttempt);
  FpgaSystem sys(Epxa1Config());
  sys.kernel().InstallFaultPlan(&plan);
  const os::ExecutionReport r = RunGather(sys, g);  // exact
  EXPECT_EQ(plan.total_injected(), 1u);
  EXPECT_EQ(r.vim.fault_recoveries, 1u);
  EXPECT_EQ(r.vim.loads, clean.vim.loads);
  EXPECT_EQ(r.vim.kernel_copy_loads, clean.vim.kernel_copy_loads);
  // The wasted attempt ran only the bounce -> DP-RAM pass, then the
  // first backoff, then the retry at the same re-load price.
  const os::CostModel& costs = sys.kernel().vim().costs();
  EXPECT_EQ(r.t_dp - clean.t_dp,
            sys.kernel().vim().transfer_engine().PriceReload(2048) +
                costs.Cycles(costs.transfer_retry_backoff_cycles));
}

TEST(VimReloadTest, ExhaustedLoadRetriesRecordNothingAndFailCleanly) {
  const apps::GatherInput g = MakeGather(15);
  // The very first transfer is a first load; attempt kReloadAttempt is
  // a re-load. Fail every attempt the retry limit allows on each.
  for (const u64 attempt : {u64{1}, kReloadAttempt}) {
    SCOPED_TRACE("attempt " + std::to_string(attempt));
    FaultPlan plan;
    for (u64 k = 0; k < os::kTransferRetryLimit; ++k) {
      plan.At(FaultSite::kAhbError, attempt + k);
    }
    FpgaSystem sys(Epxa1Config());
    sys.kernel().InstallFaultPlan(&plan);
    auto run = runtime::RunGatherVim(sys, g.in, g.perm);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), ErrorCode::kUnavailable);
    const os::Vim& vim = sys.kernel().vim();
    EXPECT_EQ(vim.service_stats().transfer_retry_failures, 1u);
    // Every transfer before the failing one landed and was counted;
    // the failing one counted nothing.
    const os::VimAccounting& acct = vim.accounting();
    EXPECT_EQ(acct.loads + acct.writebacks, attempt - 1);
    // Each IN page in the transfer set was first-loaded exactly once;
    // every other load was a re-load. A failed first load adds no page.
    u64 in_pages = 0;
    for (const auto& [object, vpage] : sys.kernel().vim().space()->transferred) {
      if (object != cp::GatherCoprocessor::kObjOut) ++in_pages;
    }
    EXPECT_EQ(acct.loads - acct.kernel_copy_loads, in_pages);
  }
}

// ----- write-back under bus errors -----
//
// Eviction, the end-of-operation sweep and context save all store dirty
// pages through one retried helper. adpcm 8 KB makes 20 AHB transfers,
// and the 20th is the sweep's last store, so these tests fail exactly
// that store, through the blocking kernel path and through vcopd.

/// AHB transfers in one clean adpcm 8 KB run.
constexpr u64 kAdpcmTransfers = 20;

struct AdpcmRun {
  Status status = Status::Ok();
  bool exact = false;
  os::VimAccounting acct;
  os::VimServiceStats service;
  bool quarantined = false;
  /// Dual-port frames still in use once the system went idle.
  u32 frames_in_use = 0;
};

bench::Job AdpcmJob() { return bench::MakeJob(bench::App::kAdpcm, 8192, 9); }

/// The job through FPGA_EXECUTE.
AdpcmRun RunAdpcmKernel(FaultPlan* plan) {
  FpgaSystem sys(Epxa1Config());
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  const bench::StagedJob staged = bench::StageBlocking(sys, AdpcmJob());
  const Result<os::ExecutionReport> report = sys.Execute(staged.job.params);
  AdpcmRun out;
  out.status = report.status();
  out.exact = report.ok() && staged.Exact();
  out.acct = sys.kernel().vim().accounting();
  out.service = sys.kernel().vim().service_stats();
  out.frames_in_use = sys.kernel().vim().page_manager().frames_in_use();
  return out;
}

/// The same job as the only vcopd tenant.
AdpcmRun RunAdpcmVcopd(FaultPlan* plan) {
  FpgaSystem sys(Epxa1Config());
  os::Vcopd daemon(sys.kernel());
  const bench::StagedJob staged =
      bench::StageTenant(sys, daemon, "adpcm", AdpcmJob());
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  const os::Ticket ticket = staged.Submit(daemon).value();
  VCOP_CHECK(daemon.RunUntilIdle().ok());
  const os::JobResult* result = daemon.Poll(ticket);
  VCOP_CHECK(result != nullptr);
  AdpcmRun out;
  out.status = result->status;
  out.exact = result->status.ok() && staged.Exact();
  out.acct = result->report.vim;
  out.service = sys.kernel().vim().service_stats();
  out.quarantined = daemon.TenantQuarantined(staged.tenant);
  out.frames_in_use = sys.kernel().vim().page_manager().frames_in_use();
  return out;
}

/// Two adpcm 8 KB tenants (seeds 9 and 10) under fair share with a
/// 50 us slice: evictions, context saves and resumes all store pages.
std::vector<AdpcmRun> RunAdpcmPair(FaultPlan* plan) {
  FpgaSystem sys(Epxa1Config());
  os::VcopdConfig config;
  config.policy = os::ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;
  os::Vcopd daemon(sys.kernel(), config);
  std::vector<bench::StagedJob> staged;
  for (const u64 seed : {9u, 10u}) {
    staged.push_back(bench::StageTenant(
        sys, daemon, StrFormat("adpcm%u", static_cast<u32>(seed)),
        bench::MakeJob(bench::App::kAdpcm, 8192, seed)));
  }
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  std::vector<os::Ticket> tickets;
  for (const bench::StagedJob& job : staged) {
    tickets.push_back(job.Submit(daemon).value());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());
  std::vector<AdpcmRun> runs(staged.size());
  for (usize i = 0; i < staged.size(); ++i) {
    const os::JobResult* result = daemon.Poll(tickets[i]);
    VCOP_CHECK(result != nullptr);
    runs[i].status = result->status;
    runs[i].exact = result->status.ok() && staged[i].Exact();
    runs[i].frames_in_use =
        sys.kernel().vim().page_manager().frames_in_use();
  }
  return runs;
}

/// Fails the sweep's last store on every attempt the retry limit allows.
FaultPlan ExhaustLastStore() {
  FaultPlan plan;
  for (u64 k = 0; k < os::kTransferRetryLimit; ++k) {
    plan.At(FaultSite::kAhbError, kAdpcmTransfers + k);
  }
  return plan;
}

void ExpectCleanStoreFailure(const AdpcmRun& run) {
  ASSERT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), ErrorCode::kUnavailable);
  EXPECT_NE(run.status.message().find(
                "AHB store of 2048 bytes failed after 4 attempts"),
            std::string::npos)
      << run.status.ToString();
  EXPECT_EQ(run.service.transfer_retry_failures, 1u);
  // Every store before the failing one landed and was counted.
  EXPECT_EQ(run.acct.writebacks, 15u);
}

TEST(VimWriteBackTest, InjectedBusErrorsRetryOrAbortCleanly) {
  u64 retries = 0;
  u64 exact_runs = 0;
  for (u64 seed = 1; seed <= 10; ++seed) {
    FaultPlan plan;
    // The plan's Rng is fixed; varying the probability across runs
    // varies where (and whether) the errors land.
    plan.WithProbability(FaultSite::kAhbError,
                         0.02 * static_cast<double>(seed));
    const AdpcmRun run = RunAdpcmKernel(&plan);
    // Every outcome must be clean: either the retry chain absorbed the
    // errors and the output is exact, or the run failed with a status —
    // never a silently truncated result.
    if (run.status.ok()) {
      EXPECT_TRUE(run.exact) << "seed " << seed;
      ++exact_runs;
    }
    retries += run.service.transfer_retries;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(exact_runs, 0u);
}

TEST(VimWriteBackTest, ErrorOnTheSweepsLastStoreIsRetriedInPlace) {
  // An armed-but-unreachable plan counts the run's AHB opportunities
  // without perturbing it.
  FaultPlan probe;
  probe.At(FaultSite::kAhbError, ~0ull);
  const AdpcmRun clean = RunAdpcmKernel(&probe);
  ASSERT_TRUE(clean.status.ok() && clean.exact);
  ASSERT_EQ(probe.stats(FaultSite::kAhbError).opportunities,
            kAdpcmTransfers);
  EXPECT_EQ(clean.acct.writebacks, 16u);

  FaultPlan plan;
  plan.At(FaultSite::kAhbError, kAdpcmTransfers);
  const AdpcmRun run = RunAdpcmKernel(&plan);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_TRUE(run.exact);
  EXPECT_EQ(run.service.transfer_retries, 1u);
  EXPECT_EQ(run.acct.writebacks, clean.acct.writebacks);
}

TEST(VimWriteBackTest, ExhaustedSweepStoreFailsTheKernelExecute) {
  FaultPlan plan = ExhaustLastStore();
  ExpectCleanStoreFailure(RunAdpcmKernel(&plan));
}

TEST(VimWriteBackTest, ExhaustedSweepStoreQuarantinesTheVcopdTenant) {
  FaultPlan probe;
  probe.At(FaultSite::kAhbError, ~0ull);
  const AdpcmRun clean = RunAdpcmVcopd(&probe);
  ASSERT_TRUE(clean.status.ok() && clean.exact);
  ASSERT_EQ(probe.stats(FaultSite::kAhbError).opportunities,
            kAdpcmTransfers);
  EXPECT_EQ(clean.acct.writebacks, 16u);

  FaultPlan plan = ExhaustLastStore();
  const AdpcmRun run = RunAdpcmVcopd(&plan);
  ExpectCleanStoreFailure(run);
  EXPECT_TRUE(run.quarantined);
}

TEST(VimWriteBackTest, ExhaustedStoreAtAnyTransferFailsCleanly) {
  // Whichever transfer exhausts its retries (a load, an eviction's
  // store, a context save's or the sweep's), every job ends exact or
  // with the retry status, and no frame stays behind.
  struct Scenario {
    const char* name;
    u64 transfers;  // AHB opportunities of the clean run
    std::function<std::vector<AdpcmRun>(FaultPlan*)> run;
  };
  const Scenario scenarios[] = {
      {"blocking", kAdpcmTransfers,
       [](FaultPlan* plan) { return std::vector{RunAdpcmKernel(plan)}; }},
      {"lone tenant", kAdpcmTransfers,
       [](FaultPlan* plan) { return std::vector{RunAdpcmVcopd(plan)}; }},
      // 14 loads and 32 stores, as without a plan: an armed plan no
      // longer idles the fabric after a preemption.
      {"two tenants", 46, [](FaultPlan* plan) { return RunAdpcmPair(plan); }},
  };
  const std::string exhausted =
      StrFormat("failed after %u attempts", os::kTransferRetryLimit);
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    FaultPlan probe;
    probe.At(FaultSite::kAhbError, ~0ull);
    scenario.run(&probe);
    ASSERT_EQ(probe.stats(FaultSite::kAhbError).opportunities,
              scenario.transfers);
    for (u64 k = 1; k <= scenario.transfers; ++k) {
      SCOPED_TRACE(StrFormat("errors from transfer %u", static_cast<u32>(k)));
      FaultPlan plan;
      for (u64 i = 0; i < os::kTransferRetryLimit; ++i) {
        plan.At(FaultSite::kAhbError, k + i);
      }
      for (const AdpcmRun& run : scenario.run(&plan)) {
        EXPECT_EQ(run.frames_in_use, 0u);
        if (run.status.ok()) {
          EXPECT_TRUE(run.exact);
          continue;
        }
        EXPECT_EQ(run.status.code(), ErrorCode::kUnavailable);
        EXPECT_NE(run.status.message().find(exhausted), std::string::npos)
            << run.status.ToString();
      }
    }
  }
}

// ----- re-faults: which demand faults take wsfifo's LRU rule -----
//
// A demand fault is a re-fault when its own space evicted the page after
// the coprocessor had referenced it, since the space last came onto the
// fabric. PolicyLog wraps the default policy and logs, in order, every
// page the VIM frees and every demand decision with its verdict; the
// tests replay that log.

/// One callback the VIM made into its replacement policy.
struct PolicyEvent {
  bool demand = false;  // a demand decision; otherwise a freed page
  /// The space on the fabric, and its preemptions so far in the current
  /// execution: together they name the slice.
  hw::Asid attached = 0;
  u64 slice = 0;
  /// The page: the freed page and its owner, or the faulting page.
  hw::Asid owner = 0;
  hw::ObjectId object = 0;
  mem::VirtPage vpage = 0;
  /// Freed page: a harvest saw it referenced.
  bool used = false;
  /// Demand decision: the fault's DemandFault::refault.
  bool refault = false;
};

/// The default policy, logging what the VIM tells it.
class PolicyLog final : public os::ReplacementPolicy {
 public:
  explicit PolicyLog(os::Vim& vim) : vim_(vim) {}

  std::vector<PolicyEvent> events;

  std::string_view name() const override { return inner_->name(); }
  void Reset(u32 num_frames) override {
    inner_->Reset(num_frames);
    frames_.assign(num_frames, PolicyEvent{});
  }
  void OnInstalled(mem::FrameId frame, hw::ObjectId object,
                   mem::VirtPage vpage) override {
    inner_->OnInstalled(frame, object, vpage);
    frames_[frame] = Now(object, vpage);
  }
  void OnTouched(mem::FrameId frame) override {
    inner_->OnTouched(frame);
    frames_[frame].used = true;
  }
  void OnFreed(mem::FrameId frame) override {
    inner_->OnFreed(frame);
    PolicyEvent freed = Now(frames_[frame].object, frames_[frame].vpage);
    freed.owner = frames_[frame].owner;
    freed.used = frames_[frame].used;
    events.push_back(freed);
  }
  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    return inner_->PickVictim(evictable);
  }
  mem::FrameId PickDemandVictim(const std::vector<bool>& evictable,
                                const os::DemandFault& fault) override {
    PolicyEvent decision = Now(fault.object, fault.vpage);
    decision.demand = true;
    decision.refault = fault.refault;
    events.push_back(decision);
    return inner_->PickDemandVictim(evictable, fault);
  }

 private:
  /// An event on (object, vpage) of the attached space, now.
  PolicyEvent Now(hw::ObjectId object, mem::VirtPage vpage) {
    const os::AddressSpace& space = *vim_.space();
    PolicyEvent e;
    e.attached = space.asid();
    e.slice = space.accounting.preemptions;
    e.owner = space.asid();
    e.object = object;
    e.vpage = vpage;
    return e;
  }

  os::Vim& vim_;
  std::unique_ptr<os::ReplacementPolicy> inner_ =
      os::MakePolicy(os::PolicyKind::kWsFifo, 0);
  std::vector<PolicyEvent> frames_;
};

/// Installs a PolicyLog as `sys`'s replacement policy.
PolicyLog& LogPolicy(FpgaSystem& sys) {
  auto log = std::make_unique<PolicyLog>(sys.kernel().vim());
  PolicyLog& ref = *log;
  sys.kernel().vim().SetPolicy(std::move(log));
  return ref;
}

/// One demand decision, and what the log said about its page before it.
/// Each space runs one job, so the log is one execution per space.
struct Verdict {
  PolicyEvent fault;
  /// The faulting space freed the page in this slice after a harvest
  /// saw it referenced: the rule demands a re-fault.
  bool used_here = false;
  /// The faulting space freed the page in this slice, used or not: the
  /// rule allows a re-fault only then.
  bool freed_here = false;
  /// The faulting space freed the page in an earlier slice.
  bool freed_before = false;
  /// A page of this name was freed while its owner was off the fabric:
  /// this page by another space, or another space's page by this one.
  bool freed_by_other = false;
};

std::vector<Verdict> Verdicts(const std::vector<PolicyEvent>& events) {
  std::vector<Verdict> out;
  for (usize i = 0; i < events.size(); ++i) {
    const PolicyEvent& fault = events[i];
    if (!fault.demand) continue;
    Verdict v{fault};
    for (usize j = 0; j < i; ++j) {
      const PolicyEvent& e = events[j];
      if (e.demand || e.object != fault.object || e.vpage != fault.vpage) {
        continue;
      }
      if (e.owner == fault.owner && e.attached == fault.owner) {
        const bool here = e.slice == fault.slice;
        v.freed_here = v.freed_here || here;
        v.used_here = v.used_here || (here && e.used);
        v.freed_before = v.freed_before || !here;
      } else if (e.owner != e.attached &&
                 (e.owner == fault.owner || e.attached == fault.owner)) {
        v.freed_by_other = true;
      }
    }
    out.push_back(v);
  }
  return out;
}

/// Checks every verdict against the rule; returns how many re-faults.
u64 ExpectRefaultRule(const std::vector<Verdict>& verdicts) {
  u64 refaults = 0;
  for (const Verdict& v : verdicts) {
    SCOPED_TRACE("asid " + std::to_string(v.fault.owner) + " slice " +
                 std::to_string(v.fault.slice) + " object " +
                 std::to_string(v.fault.object) + " page " +
                 std::to_string(v.fault.vpage));
    if (v.fault.refault) {
      ++refaults;
      EXPECT_TRUE(v.freed_here) << "re-fault on a page not freed in "
                                   "this slice by its own space";
    }
    if (v.used_here) {
      EXPECT_TRUE(v.fault.refault) << "missed re-fault";
    }
  }
  return refaults;
}

TEST(VimRefaultTest, PageEvictedAfterUseIsAReFault) {
  FpgaSystem sys(Epxa1Config());
  const PolicyLog& log = LogPolicy(sys);
  RunGather(sys, MakeGather(17));  // exact
  EXPECT_GT(ExpectRefaultRule(Verdicts(log.events)), 0u);
}

TEST(VimRefaultTest, DemandPagesAreReferencedBeforeEviction) {
  // Every page a fault service loads is the one the stalled coprocessor
  // is waiting for, so no page leaves before its first reference: each
  // page the gather faults back was used first. Background cleaning
  // frees no frame, so the rule holds under it too.
  os::KernelConfig config = Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kClean;
  FpgaSystem sys(config);
  const PolicyLog& log = LogPolicy(sys);
  RunGather(sys, MakeGather(17));  // exact
  const std::vector<Verdict> verdicts = Verdicts(log.events);
  EXPECT_GT(ExpectRefaultRule(verdicts), 0u);
  for (const Verdict& v : verdicts) {
    EXPECT_TRUE(!v.freed_here || v.used_here);
  }
}

/// Two vcopd tenants, each one gather over the same object ids, sharing
/// the fabric under fair share: each is preempted at fault boundaries,
/// and each evicts the other's pages.
std::vector<Verdict> TwoGatherTenants() {
  FpgaSystem sys(Epxa1Config());
  os::Vcopd daemon(sys.kernel());
  const PolicyLog& log = LogPolicy(sys);
  std::vector<bench::StagedJob> tenants;
  std::vector<os::Ticket> tickets;
  for (const u64 seed : {21u, 22u}) {
    tenants.push_back(bench::StageTenant(
        sys, daemon, "gather" + std::to_string(seed),
        bench::MakeJob(bench::App::kGather, 4 * kGatherElements, seed)));
    tickets.push_back(tenants.back().Submit(daemon).value());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());
  for (usize i = 0; i < tenants.size(); ++i) {
    const os::JobResult* result = daemon.Poll(tickets[i]);
    VCOP_CHECK(result != nullptr && result->status.ok());
    VCOP_CHECK(result->preemptions > 0);
    VCOP_CHECK(tenants[i].Exact());
  }
  return Verdicts(log.events);
}

TEST(VimRefaultTest, VcopdTenantPreemptedSinceTheEvictionTakesWsFifosVictim) {
  const std::vector<Verdict> verdicts = TwoGatherTenants();
  EXPECT_GT(ExpectRefaultRule(verdicts), 0u);
  u64 across_preemption = 0;
  for (const Verdict& v : verdicts) {
    if (v.freed_before && !v.freed_here) {
      ++across_preemption;
      EXPECT_FALSE(v.fault.refault);
    }
  }
  EXPECT_GT(across_preemption, 0u);
}

TEST(VimRefaultTest, AnotherTenantsEvictionMarksNoPage) {
  const std::vector<Verdict> verdicts = TwoGatherTenants();
  ExpectRefaultRule(verdicts);
  u64 foreign_only = 0;
  for (const Verdict& v : verdicts) {
    if (v.freed_by_other && !v.freed_here) {
      ++foreign_only;
      EXPECT_FALSE(v.fault.refault);
    }
  }
  EXPECT_GT(foreign_only, 0u);
}

TEST(VimRefaultTest, PaperPointsTakeNoReFault) {
  // The seven Figure 8 / Figure 9 points and the edge_detect image
  // stream their objects: no page comes back after its eviction, so
  // wsfifo decides there exactly as before the re-fault rule.
  u64 decisions = 0;
  const auto check = [&](auto run) {
    FpgaSystem sys(Epxa1Config());
    const PolicyLog& log = LogPolicy(sys);
    ASSERT_TRUE(run(sys).ok());
    const std::vector<Verdict> verdicts = Verdicts(log.events);
    EXPECT_EQ(ExpectRefaultRule(verdicts), 0u);
    for (const Verdict& v : verdicts) EXPECT_FALSE(v.freed_here);
    decisions += verdicts.size();
  };
  constexpr u64 kSeed = 20040216;  // the paper inputs (bench/common.h)
  for (const usize bytes : {2048u, 4096u, 8192u}) {
    SCOPED_TRACE("adpcm " + std::to_string(bytes));
    const std::vector<u8> input = apps::MakeAdpcmStream(bytes, kSeed);
    check([&](FpgaSystem& sys) { return runtime::RunAdpcmVim(sys, input); });
  }
  const apps::IdeaSubkeys keys =
      apps::IdeaExpandKey(apps::MakeIdeaKey(kSeed));
  for (const usize bytes : {4096u, 8192u, 16384u, 32768u}) {
    SCOPED_TRACE("idea " + std::to_string(bytes));
    const std::vector<u8> input = apps::MakeRandomBytes(bytes, kSeed + 1);
    check([&](FpgaSystem& sys) {
      return runtime::RunIdeaVim(sys, keys, input);
    });
  }
  const std::vector<u8> image = apps::MakeTestImage(128, 96, 2026);
  check([&](FpgaSystem& sys) {
    return runtime::RunConv3x3Vim(sys, image, 128, 96, apps::SobelXKernel(),
                                  /*shift=*/0);
  });
  EXPECT_GT(decisions, 0u);
}


// ----- a repeated FPGA_EXECUTE repeats itself -----

/// Runs `run` three times on one system. Every run must page like the
/// first, and the totals may differ only by the clock phase each run
/// starts on: at most one period of the coprocessor clock `cp_clock`.
template <typename Run>
void ExpectRepeatedRunsAgree(const os::KernelConfig& config,
                             Frequency cp_clock, Run run) {
  FpgaSystem sys(config);
  std::vector<os::ExecutionReport> reports;
  for (int i = 0; i < 3; ++i) {
    auto result = run(sys);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reports.push_back(result.value().report);
  }
  const os::ExecutionReport& first = reports.front();
  Picoseconds lo = first.total;
  Picoseconds hi = first.total;
  for (usize i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i + 1));
    const os::ExecutionReport& r = reports[i];
    EXPECT_EQ(r.vim.faults, first.vim.faults);
    EXPECT_EQ(r.vim.evictions, first.vim.evictions);
    EXPECT_EQ(r.vim.loads, first.vim.loads);
    EXPECT_EQ(r.vim.writebacks, first.vim.writebacks);
    EXPECT_EQ(r.vim.tlb_refills, first.vim.tlb_refills);
    EXPECT_EQ(r.vim.cleaned_pages, first.vim.cleaned_pages);
    EXPECT_EQ(r.imu.accesses, first.imu.accesses);
    EXPECT_EQ(r.imu.faults, first.imu.faults);
    EXPECT_EQ(r.tlb.lookups, first.tlb.lookups);
    EXPECT_EQ(r.tlb.misses, first.tlb.misses);
    lo = std::min(lo, r.total);
    hi = std::max(hi, r.total);
  }
  EXPECT_LE(hi - lo, cp_clock.Duration(1));
}

TEST(VimRepeatTest, RepeatedAdpcmRunsAgree) {
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 20040216);
  const Frequency cp_clock = cp::AdpcmDecodeBitstream().cp_clock;
  auto run = [&](FpgaSystem& sys) { return runtime::RunAdpcmVim(sys, input); };

  os::KernelConfig epxa1 = Epxa1Config();
  os::KernelConfig two_entries = Epxa1Config();
  two_entries.tlb_entries = 2;
  os::KernelConfig clean = Epxa1Config();
  clean.tlb_entries = 3;
  clean.vim.prefetch = os::PrefetchKind::kClean;
  for (const auto& [name, config] :
       {std::pair{"epxa1", epxa1}, std::pair{"tlb2", two_entries},
        std::pair{"tlb3 clean", clean}}) {
    SCOPED_TRACE(name);
    ExpectRepeatedRunsAgree(config, cp_clock, run);
  }
}

TEST(VimRepeatTest, RepeatedIdeaRunsAgreeUnderOverlap) {
  const apps::IdeaSubkeys keys =
      apps::IdeaExpandKey(apps::MakeIdeaKey(20040216));
  const std::vector<u8> input = apps::MakeRandomBytes(32768, 20040217);
  os::KernelConfig config = Epxa1Config();
  config.tlb_entries = 3;
  config.vim.prefetch = os::PrefetchKind::kClean;
  ExpectRepeatedRunsAgree(config, cp::IdeaBitstream().cp_clock,
                          [&](FpgaSystem& sys) {
                            return runtime::RunIdeaVim(sys, keys, input);
                          });
}

}  // namespace
}  // namespace vcop
