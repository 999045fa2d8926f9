// Tests for the vcopd service daemon: asynchronous submission,
// admission control, preemptive context switching (dirty pages pending
// at the fault boundary, TLB entries the other tenant recycled from a
// TLB smaller than the frame pool refilled by faults, a conv job
// resuming mid-row on its register window),
// ASID allocation/wrap, tenant teardown, a switch keeping the
// switched-out tenant's working set, IO-TLB shootdowns at switches and
// repoints, a lone tenant paging like FPGA_EXECUTE (every transfer mode,
// background cleaning, per-object page sizes), blocking loads and jobs
// sharing the fabric's configuration cache, the FIFO policy's batching
// by bit-stream, and jobs reusing designs from the kernel's pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/fault.h"
#include "bench/common.h"
#include "cp/gather_cp.h"
#include "cp/registry.h"
#include "os/address_space.h"
#include "os/vcopd.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop::os {
namespace {

using bench::App;
using bench::MakeJob;
using bench::StagedJob;
using bench::StageTenant;
using runtime::FpgaSystem;

KernelConfig TestConfig() {
  KernelConfig config;  // EPXA1 defaults: 8 x 2KB pages, 8-entry TLB
  return config;
}

// ----- AsidAllocator -----

TEST(AsidAllocatorTest, SkipsReservedZeroAndExhausts) {
  AsidAllocator allocator(4);  // tags {0,1,2,3}, 0 reserved
  EXPECT_EQ(allocator.Allocate().value(), 1u);
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  EXPECT_EQ(allocator.Allocate().value(), 3u);
  const Result<hw::Asid> full = allocator.Allocate();
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), ErrorCode::kResourceExhausted);
}

TEST(AsidAllocatorTest, WrapAroundReuseAfterRelease) {
  AsidAllocator allocator(4);
  EXPECT_EQ(allocator.Allocate().value(), 1u);
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  EXPECT_EQ(allocator.Allocate().value(), 3u);
  allocator.Release(2);
  EXPECT_FALSE(allocator.InUse(2));
  // The cursor keeps advancing: the freed tag is found by wrapping past
  // the reserved 0, not by restarting at the lowest free tag.
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  EXPECT_TRUE(allocator.InUse(2));
  EXPECT_EQ(allocator.in_use(), 4u);  // includes the reserved kernel tag
}

// ----- asynchronous lifecycle -----

TEST(VcopdTest, SubmitPollWaitRoundTrip) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  StagedJob job =
      StageTenant(sys, daemon, "solo", MakeJob(App::kVecAdd, 2048, 1));

  const Ticket ticket = job.Submit(daemon).value();
  EXPECT_FALSE(daemon.Poll(ticket).has_value());  // queued, nothing ran yet
  EXPECT_EQ(daemon.stats().submitted, 1u);

  const Result<JobResult> result = daemon.Wait(ticket);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_TRUE(job.Exact());

  const std::optional<JobResult> polled = daemon.Poll(ticket);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->ticket, ticket);
  EXPECT_GT(polled->finished_at, polled->started_at);
  EXPECT_EQ(daemon.stats().completed, 1u);
  EXPECT_EQ(polled->preemptions, 0u);  // nobody to preempt for
}

TEST(VcopdTest, CompletionCallbackFiresAtCompletionInstant) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  StagedJob job =
      StageTenant(sys, daemon, "cb", MakeJob(App::kVecAdd, 1024, 2));

  Picoseconds callback_at = 0;
  bool exact_at_completion = false;
  const Ticket ticket = job.Submit(daemon, [&](const JobResult& r) {
                             callback_at = r.finished_at;
                             // The payload must already be in user memory
                             // when the completion event fires.
                             exact_at_completion = job.Exact();
                           }).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const std::optional<JobResult> result = daemon.Poll(ticket);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(callback_at, result->finished_at);
  EXPECT_TRUE(exact_at_completion);
}

TEST(VcopdTest, BoundedQueueRejectsWithBackpressure) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.queue_depth = 2;
  Vcopd daemon(sys.kernel(), config);
  StagedJob job =
      StageTenant(sys, daemon, "burst", MakeJob(App::kVecAdd, 256, 3));

  ASSERT_TRUE(job.Submit(daemon).ok());
  ASSERT_TRUE(job.Submit(daemon).ok());
  const Result<Ticket> third = job.Submit(daemon);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(daemon.stats().rejected, 1u);

  // Draining the queue restores admission.
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_TRUE(job.Submit(daemon).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
}

// ----- preemptive context switching -----

struct PreemptionRun {
  u64 preemptions = 0;
  Picoseconds makespan = 0;
  VimServiceStats service;
  /// Each job's own accounting, in submission order.
  std::vector<VimAccounting> jobs;
  bool correct = false;
  /// The IO-TLB's most live entries after any slice.
  u32 max_live_iotlb_entries = 0;
  mem::IommuStats iommu;
  /// User pages still DMA-pinned once the daemon is idle.
  u64 pinned_pages_left = 0;
  /// Frames still in use once the daemon is idle.
  usize frames_in_use = 0;
  /// Clean units queued (the timeline's `overlap` events).
  u64 clean_units = 0;
};

/// Two tenants, one job each, with a time slice far below their
/// runtime: every fault boundary past `time_slice` (50 us) preempts.
/// `plan`, if given, is installed once both are staged.
PreemptionRun RunContendedPair(const KernelConfig& kernel_config,
                               const bench::Job& a, const bench::Job& b,
                               FaultPlan* plan = nullptr,
                               Picoseconds time_slice = 50ull * 1000 * 1000) {
  FpgaSystem sys(kernel_config);
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = time_slice;
  config.quantum = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);
  sys.kernel().vim().ResetServiceStats();

  StagedJob first = StageTenant(sys, daemon, "alpha", a);
  StagedJob second = StageTenant(sys, daemon, "beta", b);
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  const Ticket t1 = first.Submit(daemon).value();
  const Ticket t2 = second.Submit(daemon).value();
  PreemptionRun run;
  const mem::Iommu& io = sys.kernel().vim().transfer_engine().iommu();
  while (daemon.HasWork()) {
    VCOP_CHECK(daemon.RunOne().ok());
    run.max_live_iotlb_entries =
        std::max(run.max_live_iotlb_entries, io.live_entries());
  }

  run.preemptions = daemon.stats().preemptions;
  run.makespan = daemon.BuildScheduleReport().makespan;
  run.service = sys.kernel().vim().service_stats();
  run.iommu = io.stats();
  run.pinned_pages_left = sys.kernel().user_memory().pinned_pages();
  run.frames_in_use = sys.kernel().vim().page_manager().frames_in_use();
  for (const os::TimelineEvent& e : sys.kernel().timeline().events()) {
    if (e.category == "overlap") ++run.clean_units;
  }
  run.jobs = {daemon.Poll(t1)->report.vim, daemon.Poll(t2)->report.vim};
  run.correct = daemon.Poll(t1)->status.ok() &&
                daemon.Poll(t2)->status.ok() &&
                first.Exact() && second.Exact();
  return run;
}

/// Two ADPCM tenants big enough to fault repeatedly: preemptions with
/// dirty output pages pending at the fault boundary and parameter-page
/// re-materialisation. A TLB of `tlb_entries` below the 8 frames also
/// lets the other tenant recycle TLB entries whose frames survive the
/// switched-out window, and the resumed tenant refills them by fault;
/// at 8 entries an entry only ever leaves together with its frame.
PreemptionRun RunContendedAdpcm(
    u32 tlb_entries = 8,
    mem::CopyMode copy_mode = mem::CopyMode::kDoubleCopy) {
  KernelConfig kernel_config = TestConfig();
  kernel_config.tlb_entries = tlb_entries;
  kernel_config.vim.copy_mode = copy_mode;
  return RunContendedPair(kernel_config,
                          MakeJob(App::kAdpcm, 12 * 1024, 1),
                          MakeJob(App::kAdpcm, 12 * 1024, 2));
}

/// Two ADPCM 12 KB tenants under `prefetch` with 1 ms slices: long
/// enough for fault services to queue clean units, short enough that
/// some are still queued when the next fault preempts their tenant.
/// (At 50 us every slice services one fault on freshly saved, clean
/// pages, so no unit is ever queued.)
PreemptionRun RunContendedCleaning(PrefetchKind prefetch) {
  KernelConfig kernel_config = TestConfig();
  kernel_config.vim.prefetch = prefetch;
  return RunContendedPair(kernel_config, MakeJob(App::kAdpcm, 12 * 1024, 1),
                          MakeJob(App::kAdpcm, 12 * 1024, 2), nullptr,
                          /*time_slice=*/1'000'000'000);
}

TEST(VcopdTest, PreemptionWithDirtyPagesKeepsResultsExact) {
  const PreemptionRun run = RunContendedAdpcm();
  EXPECT_TRUE(run.correct);
  EXPECT_GT(run.preemptions, 0u);
  EXPECT_GT(run.service.context_saves, 0u);
  EXPECT_GT(run.service.context_restores, 0u);
  // Dirty output pages were pending at fault boundaries and written
  // back eagerly by SaveContext.
  EXPECT_GT(run.service.pages_written_back_on_save, 0u);
}

TEST(VcopdTest, PreemptedConvResumesWithItsWindowIntact) {
  // The conv core holds six window pixels across accesses. On 4096x6
  // images each row spans two pages, so faults (the preemption points)
  // fall mid-row and a switched-out job resumes on its saved window.
  const PreemptionRun run =
      RunContendedPair(TestConfig(), MakeJob(App::kConv, 4096 * 6, 1, 4096),
                       MakeJob(App::kConv, 4096 * 6, 2, 4096));
  EXPECT_GT(run.preemptions, 0u);
  EXPECT_TRUE(run.correct);
}

TEST(VcopdTest, TaggedTlbAvoidsFullFlushesAndRestoresEntries) {
  // A switch flushes nothing: with eight entries over eight frames no
  // job refills a translation, and each pages about as much as the same
  // job alone (30 hard faults here; a switch that evicted the
  // switched-out tenant's working set took 54 per job).
  const u64 alone =
      bench::RunFresh(TestConfig(), MakeJob(App::kAdpcm, 12 * 1024, 1))
          .report.vim.faults;
  const PreemptionRun contended = RunContendedAdpcm();
  ASSERT_TRUE(contended.correct);
  EXPECT_GT(contended.preemptions, 0u);
  for (const VimAccounting& job : contended.jobs) {
    EXPECT_EQ(job.tlb_refills, 0u);
    EXPECT_LT(2 * job.faults, 3 * alone) << job.faults << " vs " << alone;
  }
  // Four entries over eight frames: the other tenant recycles entries
  // of pages that stay resident, and the resumed tenant refills them by
  // fault instead of reloading the pages.
  const PreemptionRun small = RunContendedAdpcm(/*tlb_entries=*/4);
  ASSERT_TRUE(small.correct);
  EXPECT_GT(small.jobs[0].tlb_refills + small.jobs[1].tlb_refills, 0u);
}

TEST(VcopdTest, ArmedFaultPlanDoesNotStretchPreemptions) {
  // A plan arms the VIM watchdog. The stale tick a preempted run leaves
  // queued (up to 1 ms out) must not hold the fabric idle, and a second
  // edge of the preempting fault is a duplicate, not a second save:
  // under a plan that never fires, or one that doubles every interrupt
  // edge, the pair finishes when it does with no plan.
  const bench::Job a = MakeJob(App::kAdpcm, 12 * 1024, 1);
  const bench::Job b = MakeJob(App::kAdpcm, 12 * 1024, 2);
  const PreemptionRun plain = RunContendedPair(TestConfig(), a, b);
  FaultPlan never, doubled;
  never.At(FaultSite::kAhbError, ~0ull);
  doubled.WithProbability(FaultSite::kIrqDuplicate, 1.0);
  for (FaultPlan* plan : {&never, &doubled}) {
    const PreemptionRun armed = RunContendedPair(TestConfig(), a, b, plan);
    EXPECT_TRUE(armed.correct);
    EXPECT_GT(armed.preemptions, 0u);
    EXPECT_EQ(armed.preemptions, plain.preemptions);
    EXPECT_EQ(armed.service.context_saves, plain.service.context_saves);
    EXPECT_EQ(armed.makespan, plain.makespan);
  }
}

TEST(VcopdTest, ContendedTenantsUnderTheIommuHoldNoTranslationsBetweenSlices) {
  // Every switch-out shoots the tenant's IO-TLB entries down, so no
  // slice starts with another tenant's DMA translations live.
  const PreemptionRun run =
      RunContendedAdpcm(/*tlb_entries=*/8, mem::CopyMode::kIommu);
  EXPECT_TRUE(run.correct);
  EXPECT_GT(run.preemptions, 0u);
  EXPECT_EQ(run.max_live_iotlb_entries, 0u);
  EXPECT_GT(run.iommu.walks, 0u);
  EXPECT_GT(run.iommu.pages_pinned, 0u);
  EXPECT_EQ(run.iommu.pages_pinned, run.iommu.pages_unpinned);
  EXPECT_EQ(run.pinned_pages_left, 0u);
}

TEST(VcopdTest, RepointShootsDownTheTenantsTranslations) {
  KernelConfig config = TestConfig();
  config.vim.copy_mode = mem::CopyMode::kIommu;
  FpgaSystem sys(config);
  Vcopd daemon(sys.kernel());
  StagedJob staged =
      StageTenant(sys, daemon, "alpha", MakeJob(App::kIdea, 8 * 1024, 1));
  // The first tenant's ASID is 1.
  const AddressSpace* space = daemon.FindSpace(1);
  ASSERT_NE(space, nullptr);
  const runtime::JobObject& in = staged.job.objects.front();
  const mem::UserAddr first = space->objects().Find(in.id)->user_addr;

  // A DMA for the tenant while it is off the fabric: the walker finds
  // its objects through the space resolver and caches the translation.
  mem::TransferEngine& engine = sys.kernel().vim().transfer_engine();
  ASSERT_FALSE(engine
                   .LoadPage(1, sys.kernel().user_memory(), first,
                             sys.kernel().dp_ram(), 0, 64)
                   .iommu_fault);
  ASSERT_EQ(engine.iommu().live_entries_of(1), 1u);

  const mem::UserAddr moved =
      sys.Allocate<u8>(static_cast<u32>(in.bytes.size())).value().addr();
  ASSERT_TRUE(
      daemon.RepointObjects(staged.tenant, std::array{ObjectRef{in.id, moved}})
          .ok());
  EXPECT_EQ(engine.iommu().live_entries_of(1), 0u);
}

TEST(VcopdTest, BackgroundWorkLeavesTheFabricWithItsTenant) {
  // A unit that outlived its tenant's context save would land under the
  // next tenant's ASID: both jobs OK, wrong bytes.
  const u64 demand_paged =
      RunContendedCleaning(PrefetchKind::kNone).preemptions;
  const PreemptionRun run = RunContendedCleaning(PrefetchKind::kClean);
  EXPECT_TRUE(run.correct);
  EXPECT_EQ(run.frames_in_use, 0u);
  // Some queued units never landed: their tenant left the fabric (or
  // evicted the page) first.
  EXPECT_GT(run.clean_units,
            run.jobs[0].cleaned_pages + run.jobs[1].cleaned_pages);
  // Background work does not turn preemption into a storm.
  EXPECT_LE(run.preemptions, 2 * demand_paged);
}

/// The paging a lone tenant and FPGA_EXECUTE must agree on: every
/// report field (os::FieldsOf) but the two a dispatch changes, `total`
/// and `t_invoke`.
void ExpectSamePaging(const ExecutionReport& got,
                      const ExecutionReport& want) {
  const std::vector<Field> a = FieldsOf(got);
  const std::vector<Field> b = FieldsOf(want);
  for (usize i = 0; i < a.size(); ++i) {
    const std::string_view name = a[i].name;
    if (name == "total_ps" || name == "t_invoke_ps") continue;
    EXPECT_EQ(a[i].value, b[i].value) << name;
  }
}

/// Runs `job` twice as a lone vcopd tenant and twice through
/// FPGA_EXECUTE, each side on its own system under `config`, and checks
/// that both page alike and stay exact.
void ExpectLoneTenantPagesLikeFpgaExecute(const KernelConfig& config,
                                          const bench::Job& job) {
  FpgaSystem blocking_sys(config);
  StagedJob blocking = bench::StageBlocking(blocking_sys, job);
  FpgaSystem sys(config);
  Vcopd daemon(sys.kernel());
  StagedJob lone = StageTenant(sys, daemon, "lone", job);
  // Each side runs the job twice. The tenant's second job runs on the
  // design its first one retired, FPGA_EXECUTE's on the design FPGA_LOAD
  // configured.
  for (const char* run : {"first run", "second run"}) {
    SCOPED_TRACE(run);
    blocking.ClearOutput();
    const Result<ExecutionReport> want = blocking_sys.Execute(job.params);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(blocking.Exact());

    lone.ClearOutput();
    const Ticket ticket = lone.Submit(daemon).value();
    ASSERT_TRUE(daemon.RunUntilIdle().ok());
    const std::optional<JobResult> result = daemon.Poll(ticket);
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->status.ok()) << result->status.ToString();
    EXPECT_TRUE(lone.Exact());
    ExpectSamePaging(result->report, want.value());
  }
  EXPECT_EQ(sys.kernel().designs_built(), 1u);
  blocking_sys.kernel().simulator().DrainAssertQuiescent();
}

TEST(VcopdTest, LoneTenantPagesLikeFpgaExecuteUnderPrefetch) {
  // Alone on the fabric, a tenant cleans the pages of its own ASID
  // exactly as FPGA_EXECUTE cleans them in the kernel's space.
  const std::vector<bench::Job> jobs = {
      MakeJob(App::kAdpcm, 8 * 1024, 5), MakeJob(App::kIdea, 32 * 1024, 5),
      MakeJob(App::kConv, 256 * 96, 5, 256),
      MakeJob(App::kVecAdd, 16 * 1024, 5),
      MakeJob(App::kGather, 16 * 1024, 5)};
  KernelConfig config = TestConfig();
  config.vim.prefetch = PrefetchKind::kClean;
  for (const bench::Job& job : jobs) {
    SCOPED_TRACE(bench::AppName(job.app));
    ExpectLoneTenantPagesLikeFpgaExecute(config, job);
  }
}

TEST(VcopdTest, LoneTenantPagesLikeFpgaExecuteInEveryTransferMode) {
  // Under the IOMMU the walker finds the tenant's objects through its
  // own ASID, and the end-of-operation shootdown names it.
  const std::vector<bench::Job> jobs = {MakeJob(App::kIdea, 32 * 1024, 5),
                                        MakeJob(App::kGather, 16 * 1024, 5)};
  for (const mem::CopyMode mode :
       {mem::CopyMode::kDoubleCopy, mem::CopyMode::kSingleCopy,
        mem::CopyMode::kIommu}) {
    KernelConfig config = TestConfig();
    config.vim.copy_mode = mode;
    for (const bench::Job& job : jobs) {
      SCOPED_TRACE(StrFormat("%s %s", bench::AppName(job.app),
                             std::string(mem::ToString(mode)).c_str()));
      ExpectLoneTenantPagesLikeFpgaExecute(config, job);
    }
  }
}

TEST(VcopdTest, LoneTenantPagesLikeFpgaExecuteUnderObjectPageSizes) {
  // `page_size_obj<id>` applies to a tenant's objects as it does to
  // FPGA_EXECUTE's: 4 KB pages halve the faults on a 2 KB granule.
  KernelConfig config = TestConfig();
  config.object_page_bytes.fill(4096);
  for (const bench::Job& job :
       {MakeJob(App::kIdea, 32 * 1024, 5), MakeJob(App::kAdpcm, 32 * 1024, 5),
        MakeJob(App::kConv, 256 * 96, 5, 256)}) {
    SCOPED_TRACE(bench::AppName(job.app));
    ExpectLoneTenantPagesLikeFpgaExecute(config, job);
  }
}

// ----- the kernel's design pool -----

/// Jobs of one bit-stream share a design across the daemon's life: the
/// kernel builds one per bit-stream under FIFO batching, and no more
/// than there are jobs of it in flight at once under fair share, where
/// a preempted job keeps its design.
TEST(VcopdTest, DesignsAreReusedAcrossJobs) {
  const std::vector<bench::TenantSpec> specs = {
      {App::kAdpcm, "audio0", 1, 4 * 1024, 8},
      {App::kAdpcm, "audio1", 1, 4 * 1024, 8},
      {App::kIdea, "crypto", 1, 8 * 1024, 8}};
  VcopdConfig fifo;
  fifo.policy = ServicePolicy::kFifoBatch;
  const bench::FleetResult batched =
      bench::RunVcopdFleet(specs, TestConfig(), fifo);
  EXPECT_TRUE(batched.outputs_exact);
  EXPECT_EQ(batched.designs_built, 2u);

  VcopdConfig fair;
  fair.time_slice = 100ull * 1000 * 1000;  // 100 us: jobs get preempted
  const bench::FleetResult shared =
      bench::RunVcopdFleet(specs, TestConfig(), fair);
  EXPECT_TRUE(shared.outputs_exact);
  EXPECT_GT(shared.stats.preemptions, 0u);
  EXPECT_LE(shared.designs_built, 3u);
}

/// A design retired after a failed job is idle again: the next tenant's
/// job of the same bit-stream runs on it, exactly.
TEST(VcopdTest, WedgedDesignServesTheNextJob) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  const StagedJob wedger =
      StageTenant(sys, daemon, "wedger", MakeJob(App::kVecAdd, 1024, 7));
  const StagedJob healthy =
      StageTenant(sys, daemon, "healthy", MakeJob(App::kVecAdd, 1024, 8));

  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // wedge the first datapath access
  sys.kernel().InstallFaultPlan(&plan);
  const Result<JobResult> wedged =
      daemon.Wait(wedger.Submit(daemon).value());
  ASSERT_TRUE(wedged.ok());
  EXPECT_EQ(wedged.value().status.code(), ErrorCode::kUnavailable)
      << wedged.value().status.ToString();
  EXPECT_EQ(daemon.stats().quarantined, 1u);

  const Result<JobResult> served =
      daemon.Wait(healthy.Submit(daemon).value());
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served.value().status.ok())
      << served.value().status.ToString();
  EXPECT_TRUE(healthy.Exact());
  EXPECT_EQ(sys.kernel().designs_built(), 1u);
  sys.kernel().InstallFaultPlan(nullptr);
}

/// A preempted job whose resume fails to configure its design fails
/// cleanly; its design is stopped mid-run and retired, and the tenant's
/// next job runs on it exactly.
TEST(VcopdTest, FailedResumeRetiresAStoppedDesign) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.time_slice = 100ull * 1000 * 1000;  // 100 us
  config.affinity_skip_budget = 0;           // strict ring order
  Vcopd daemon(sys.kernel(), config);
  const StagedJob audio =
      StageTenant(sys, daemon, "audio", MakeJob(App::kAdpcm, 8 * 1024, 1));
  const StagedJob vec =
      StageTenant(sys, daemon, "vec", MakeJob(App::kVecAdd, 1024, 2));

  // Configuration-port opportunities: 1 configures adpcm, 2 vecadd once
  // adpcm's deficit runs out, 3 adpcm again for the preempted job.
  FaultPlan plan;
  plan.At(FaultSite::kConfigError, 3);
  sys.kernel().InstallFaultPlan(&plan);
  const Ticket struck = audio.Submit(daemon).value();
  const Ticket bystander = vec.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  sys.kernel().InstallFaultPlan(nullptr);

  const std::optional<JobResult> failed = daemon.Poll(struck);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status.code(), ErrorCode::kUnavailable)
      << failed->status.ToString();
  EXPECT_GT(failed->preemptions, 0u);
  ASSERT_TRUE(daemon.Poll(bystander)->status.ok());
  EXPECT_TRUE(vec.Exact());

  const Result<JobResult> again = daemon.Wait(audio.Submit(daemon).value());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().status.ok()) << again.value().status.ToString();
  EXPECT_TRUE(audio.Exact());
  EXPECT_EQ(sys.kernel().designs_built(), 2u);
}

/// A daemon torn down while a job is preempted stops that job's design
/// and retires it, so the next daemon's job of the bit-stream runs on it.
TEST(VcopdTest, TeardownRetiresAPreemptedJobsDesign) {
  FpgaSystem sys(TestConfig());
  {
    VcopdConfig config;
    config.time_slice = 100ull * 1000 * 1000;  // 100 us
    Vcopd daemon(sys.kernel(), config);
    const StagedJob first =
        StageTenant(sys, daemon, "first", MakeJob(App::kAdpcm, 8 * 1024, 1));
    const StagedJob second = StageTenant(sys, daemon, "second",
                                         MakeJob(App::kAdpcm, 8 * 1024, 2));
    ASSERT_TRUE(first.Submit(daemon).ok());
    ASSERT_TRUE(second.Submit(daemon).ok());
    while (daemon.stats().preemptions == 0) {
      ASSERT_TRUE(daemon.RunOne().ok());
    }
  }
  EXPECT_EQ(sys.kernel().designs_built(), 1u);

  Vcopd daemon(sys.kernel());
  const StagedJob next =
      StageTenant(sys, daemon, "next", MakeJob(App::kAdpcm, 8 * 1024, 3));
  const Result<JobResult> done = daemon.Wait(next.Submit(daemon).value());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().status.ok()) << done.value().status.ToString();
  EXPECT_TRUE(next.Exact());
  EXPECT_EQ(sys.kernel().designs_built(), 1u);
}

/// A pooled design carries no object descriptor of its last tenant: a
/// tenant that never mapped `in` faults on it as never mapped, not on
/// the limit register the previous tenant's `in` programmed.
TEST(VcopdTest, PooledDesignForgetsThePreviousTenantsObjects) {
  using Cp = cp::GatherCoprocessor;
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  const StagedJob mapped =
      StageTenant(sys, daemon, "mapped", MakeJob(App::kGather, 64, 3));
  // The second tenant maps only `perm` and `out`, and its perm[0] = 100
  // reads past the first tenant's 16-element `in`.
  bench::Job partial = MakeJob(App::kGather, 64, 4);
  std::erase_if(partial.objects, [](const runtime::JobObject& o) {
    return o.id == Cp::kObjIn;
  });
  for (runtime::JobObject& o : partial.objects) {
    const u32 past = 100;
    if (o.id == Cp::kObjPerm) std::memcpy(o.bytes.data(), &past, sizeof(past));
  }
  const StagedJob unmapped =
      StageTenant(sys, daemon, "unmapped", std::move(partial));

  const Result<JobResult> first = daemon.Wait(mapped.Submit(daemon).value());
  ASSERT_TRUE(first.ok() && first.value().status.ok());
  EXPECT_TRUE(mapped.Exact());
  const Result<JobResult> second =
      daemon.Wait(unmapped.Submit(daemon).value());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().status.code(), ErrorCode::kNotFound)
      << second.value().status.ToString();
  EXPECT_EQ(sys.kernel().designs_built(), 1u);
}

// ----- mixed multi-tenant correctness -----

TEST(VcopdTest, MixedTenantsMatchSoloByteForByte) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.time_slice = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);

  StagedJob adpcm =
      StageTenant(sys, daemon, "adpcm", MakeJob(App::kAdpcm, 8 * 1024, 7));
  StagedJob vecadd =
      StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 8192, 8));

  StagedJob idea =
      StageTenant(sys, daemon, "idea", MakeJob(App::kIdea, 4 * 1024, 9));

  ASSERT_TRUE(adpcm.Submit(daemon).ok());
  ASSERT_TRUE(idea.Submit(daemon).ok());
  ASSERT_TRUE(vecadd.Submit(daemon).ok());

  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
  EXPECT_EQ(daemon.stats().failed, 0u);
  EXPECT_TRUE(adpcm.Exact());
  EXPECT_TRUE(vecadd.Exact());
  EXPECT_TRUE(idea.Exact());
  // Three different designs were time-multiplexed onto the fabric.
  EXPECT_GE(daemon.stats().reconfigurations, 3u);

  const ScheduleReport report = daemon.BuildScheduleReport();
  EXPECT_EQ(report.outcomes.size(), 3u);
  const std::vector<TenantFairness> fairness = report.per_pid();
  EXPECT_EQ(fairness.size(), 3u);
  for (const TenantFairness& f : fairness) {
    EXPECT_EQ(f.jobs, 1u);
    EXPECT_LE(f.p50_turnaround, f.p99_turnaround);
    EXPECT_LE(f.makespan_share, 1.0);
  }
}

// ----- tenant lifecycle -----

TEST(VcopdTest, UnregisterTenantLifecycle) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  StagedJob job =
      StageTenant(sys, daemon, "transient", MakeJob(App::kVecAdd, 512, 4));

  const Ticket ticket = job.Submit(daemon).value();
  // Work in flight: teardown must be refused.
  const Status busy = daemon.UnregisterTenant(job.tenant);
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(daemon.Wait(ticket).ok());
  ASSERT_TRUE(daemon.UnregisterTenant(job.tenant).ok());
  // Gone: further calls fail, and the ASID tag is recyclable.
  EXPECT_EQ(daemon.UnregisterTenant(job.tenant).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(job.Submit(daemon).status().code(), ErrorCode::kNotFound);
  const TenantId reborn = daemon.RegisterTenant("reborn").value();
  EXPECT_NE(reborn, job.tenant);
}

TEST(VcopdTest, AsidReuseAfterTeardownIsClean) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.max_asids = 3;  // tags {0,1,2}: two usable tenants
  Vcopd daemon(sys.kernel(), config);

  StagedJob first =
      StageTenant(sys, daemon, "first", MakeJob(App::kVecAdd, 1024, 5));
  ASSERT_TRUE(daemon.Wait(first.Submit(daemon).value()).ok());
  ASSERT_TRUE(daemon.RegisterTenant("second").ok());
  // Tag space full until the first tenant is torn down.
  ASSERT_FALSE(daemon.RegisterTenant("third").ok());
  ASSERT_TRUE(daemon.UnregisterTenant(first.tenant).ok());

  // The recycled tag must start with a clean slate: a new tenant under
  // the reused ASID computes correct results from its own pages.
  StagedJob reuse =
      StageTenant(sys, daemon, "reuse", MakeJob(App::kVecAdd, 1024, 6));
  ASSERT_TRUE(daemon.Wait(reuse.Submit(daemon).value()).ok());
  EXPECT_TRUE(reuse.Exact());
}

// ----- results outlive their jobs -----

/// Every JobResult field of `got` equals `want`'s.
void ExpectSameResult(const JobResult& got, const JobResult& want) {
  EXPECT_EQ(got.ticket, want.ticket);
  EXPECT_EQ(got.tenant, want.tenant);
  EXPECT_EQ(got.pid, want.pid);
  EXPECT_EQ(got.bitstream, want.bitstream);
  EXPECT_EQ(got.status.ToString(), want.status.ToString());
  EXPECT_EQ(got.submitted_at, want.submitted_at);
  EXPECT_EQ(got.started_at, want.started_at);
  EXPECT_EQ(got.finished_at, want.finished_at);
  EXPECT_EQ(got.preemptions, want.preemptions);
  EXPECT_EQ(got.reconfigurations, want.reconfigurations);
  EXPECT_EQ(got.slot_activations, want.slot_activations);
  EXPECT_EQ(got.config_time, want.config_time);
  EXPECT_EQ(bench::ReportMismatch(got.report, want.report), "");
}

/// A finished job keeps only its packed result. Two tenants x 500 jobs
/// that preempt each other, and one job of a third tenant that fails
/// with a message: Poll, Wait and the schedule report decode for every
/// ticket the result on_complete saw, field by field, and the first
/// job's result reads the same after those 1001 submissions as before.
TEST(VcopdTest, FinishedJobsKeepTheResultOnCompleteSaw) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.queue_depth = 500;
  config.time_slice = 20 * 1000 * 1000;  // 20 us
  Vcopd daemon(sys.kernel(), config);
  StagedJob adpcm =
      StageTenant(sys, daemon, "adpcm", MakeJob(App::kAdpcm, 1024, 1));
  StagedJob vecadd =
      StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 256, 2));
  const TenantId unmapped = daemon.RegisterTenant("unmapped").value();
  std::map<Ticket, JobResult> seen;
  auto record = [&seen](const JobResult& r) { seen.emplace(r.ticket, r); };

  std::vector<Ticket> tickets = {adpcm.Submit(daemon, record).value()};
  ASSERT_TRUE(daemon.Wait(tickets[0]).ok());
  const std::optional<JobResult> early = daemon.Poll(tickets[0]);
  ASSERT_TRUE(early.has_value());

  Ticket broken = 0;
  for (int i = 0; i < 500; ++i) {
    tickets.push_back(adpcm.Submit(daemon, record).value());
    tickets.push_back(vecadd.Submit(daemon, record).value());
    if (i == 250) {
      const u32 params[] = {8u};
      broken = daemon.Submit(unmapped, cp::VecAddBitstream(), params, record)
                   .value();
      tickets.push_back(broken);
    }
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_GT(daemon.stats().preemptions, 0u);
  EXPECT_EQ(daemon.stats().completed, tickets.size() - 1);
  EXPECT_EQ(daemon.stats().failed, 1u);
  ExpectSameResult(*daemon.Poll(tickets[0]), *early);
  ASSERT_EQ(seen.count(broken), 1u);
  EXPECT_FALSE(seen.at(broken).status.ok());
  EXPECT_FALSE(seen.at(broken).status.message().empty());
  EXPECT_GT(seen.at(tickets[0]).report.vim.fault_service_us.count(), 0u);

  const ScheduleReport report = daemon.BuildScheduleReport();
  ASSERT_EQ(seen.size(), tickets.size());
  ASSERT_EQ(report.outcomes.size(), tickets.size());
  for (usize i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE(StrFormat("ticket %zu", i + 1));
    const JobResult& saw = seen.at(tickets[i]);
    ASSERT_TRUE(daemon.Poll(tickets[i]).has_value());
    ExpectSameResult(*daemon.Poll(tickets[i]), saw);
    ExpectSameResult(daemon.Wait(tickets[i]).value(), saw);
    ExpectSameResult(report.outcomes[i], saw);
  }
}

/// The schedule report decodes the daemon's history as it is read. Built
/// between the slices of two tenants that preempt each other, it holds
/// exactly the finished jobs, in ticket order, each equal to what Poll
/// decodes; a job still queued or switched out is absent. The first
/// partial report reads the same once every job has finished.
TEST(VcopdTest, ScheduleReportDecodesTheHistory) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.time_slice = 20 * 1000 * 1000;  // 20 us
  Vcopd daemon(sys.kernel(), config);
  StagedJob adpcm =
      StageTenant(sys, daemon, "adpcm", MakeJob(App::kAdpcm, 4096, 1));
  StagedJob vecadd =
      StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 1024, 2));
  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(adpcm.Submit(daemon).value());
    tickets.push_back(vecadd.Submit(daemon).value());
  }

  usize partial_reports = 0;  // built with some jobs finished, some not
  std::optional<ScheduleReport> first_partial;
  std::vector<JobResult> first_partial_read;
  while (daemon.HasWork()) {
    ASSERT_TRUE(daemon.RunOne().ok());
    const ScheduleReport report = daemon.BuildScheduleReport();
    std::vector<Ticket> finished;
    for (const Ticket ticket : tickets) {
      if (daemon.Poll(ticket).has_value()) finished.push_back(ticket);
    }
    if (!finished.empty() && finished.size() < tickets.size()) {
      ++partial_reports;
      if (!first_partial.has_value()) {
        first_partial = report;
        for (const JobResult& outcome : report.outcomes) {
          first_partial_read.push_back(outcome);
        }
      }
    }
    ASSERT_EQ(report.outcomes.size(), finished.size());
    for (usize i = 0; i < finished.size(); ++i) {
      const JobResult outcome = report.outcomes[i];
      EXPECT_EQ(outcome.ticket, finished[i]);
      ExpectSameResult(outcome, *daemon.Poll(finished[i]));
    }
  }
  EXPECT_GT(partial_reports, 0u);
  EXPECT_GT(daemon.stats().preemptions, 0u);
  EXPECT_EQ(daemon.BuildScheduleReport().outcomes.size(), tickets.size());
  ASSERT_TRUE(first_partial.has_value());
  ASSERT_EQ(first_partial->outcomes.size(), first_partial_read.size());
  for (usize i = 0; i < first_partial_read.size(); ++i) {
    ExpectSameResult(first_partial->outcomes[i], first_partial_read[i]);
  }
}

// ----- error paths and fault recovery -----

TEST(VcopdTest, UnknownTicketPollsNullAndWaitFailsCleanly) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  EXPECT_FALSE(daemon.Poll(0).has_value());
  EXPECT_FALSE(daemon.Poll(1).has_value());
  for (const Ticket never : {Ticket{0}, Ticket{999}}) {
    const Result<JobResult> wait = daemon.Wait(never);
    ASSERT_FALSE(wait.ok());
    EXPECT_EQ(wait.status().code(), ErrorCode::kNotFound);
  }

  // A retired ticket stays pollable; ticket 0 and its neighbour never
  // exist.
  StagedJob job =
      StageTenant(sys, daemon, "known", MakeJob(App::kVecAdd, 256, 10));
  const Ticket ticket = job.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_TRUE(daemon.Poll(ticket).has_value());
  for (const Ticket never : {Ticket{0}, ticket + 1}) {
    EXPECT_FALSE(daemon.Poll(never).has_value());
    EXPECT_EQ(daemon.Wait(never).status().code(), ErrorCode::kNotFound);
  }
}

/// A wedged datapath (injected kCpHang on the victim's first access) is
/// aborted by the VIM watchdog; vcopd quarantines the offending tenant,
/// keeps serving the others, and refuses further submissions from the
/// quarantined one instead of letting it wedge the fabric again.
TEST(VcopdTest, HangAbortQuarantinesTenantAndSparesOthers) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  StagedJob victim =
      StageTenant(sys, daemon, "victim", MakeJob(App::kVecAdd, 1024, 11));
  StagedJob bystander =
      StageTenant(sys, daemon, "bystander", MakeJob(App::kVecAdd, 1024, 12));

  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // wedge the first datapath access
  sys.kernel().InstallFaultPlan(&plan);

  const Ticket tv = victim.Submit(daemon).value();
  const Ticket tb = bystander.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const std::optional<JobResult> rv = daemon.Poll(tv);
  ASSERT_TRUE(rv.has_value());
  ASSERT_FALSE(rv->status.ok());
  EXPECT_EQ(rv->status.code(), ErrorCode::kUnavailable)
      << rv->status.ToString();
  EXPECT_EQ(daemon.stats().quarantined, 1u);
  EXPECT_GE(sys.kernel().vim().service_stats().watchdog_hang_aborts, 1u);

  // The bystander completed exactly despite sharing the fabric.
  const std::optional<JobResult> rb = daemon.Poll(tb);
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(rb->status.ok()) << rb->status.ToString();
  EXPECT_TRUE(bystander.Exact());

  // Submissions from the quarantined tenant are refused from now on.
  const Result<Ticket> refused = victim.Submit(daemon);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(daemon.stats().quarantined, 1u);

  // The healthy tenant keeps full service after the abort.
  ASSERT_TRUE(daemon.Wait(bystander.Submit(daemon).value()).ok());
  EXPECT_TRUE(bystander.Exact());
}

// ----- coexistence with the blocking kernel path -----

TEST(VcopdTest, KernelBlockingPathStillWorksAfterDaemonIdles) {
  FpgaSystem sys(TestConfig());
  {
    Vcopd daemon(sys.kernel());
    StagedJob job =
        StageTenant(sys, daemon, "tenant", MakeJob(App::kVecAdd, 1024, 9));
    ASSERT_TRUE(daemon.Wait(job.Submit(daemon).value()).ok());
    EXPECT_TRUE(job.Exact());
  }  // daemon restores the kernel binding on destruction

  // The classic exclusive blocking path on the very same kernel.
  const StagedJob blocking =
      bench::StageBlocking(sys, MakeJob(App::kVecAdd, 512, 3));
  const Result<ExecutionReport> report = sys.Execute(blocking.job.params);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(blocking.Exact());
}

/// The blocking system calls and a live daemon drive one VIM. A
/// blocking FPGA_EXECUTE between two vcopd jobs must leave every output
/// exact, and each report must count only its own execution's IMU and
/// TLB traffic: the counts the same execution reports on a fresh system.
TEST(VcopdTest, BlockingExecuteInterleavesWithLiveDaemon) {
  constexpr u32 kN = 4096;  // 48 KB of objects: every run evicts
  auto expect_own_traffic = [](const ExecutionReport& got,
                               const ExecutionReport& alone) {
    EXPECT_EQ(got.imu.accesses, alone.imu.accesses);
    EXPECT_EQ(got.imu.faults, alone.imu.faults);
    EXPECT_EQ(got.tlb.lookups, alone.tlb.lookups);
    EXPECT_EQ(got.tlb.hits, alone.tlb.hits);
    EXPECT_EQ(got.tlb.misses, alone.tlb.misses);
    EXPECT_EQ(got.vim.faults, alone.vim.faults);
    EXPECT_EQ(got.vim.evictions, alone.vim.evictions);
  };
  auto run_job = [](FpgaSystem& sys, Vcopd& daemon, const char* name,
                    u32 seed) {
    StagedJob job =
        StageTenant(sys, daemon, name, MakeJob(App::kVecAdd, 4 * kN, seed));
    const Result<JobResult> r = daemon.Wait(job.Submit(daemon).value());
    EXPECT_TRUE(r.ok() && r.value().status.ok());
    EXPECT_TRUE(job.Exact());
    return r.value().report;
  };
  std::vector<u32> a(kN), b(kN), sum(kN);
  for (u32 i = 0; i < kN; ++i) {
    a[i] = 5u * i + 1u;
    b[i] = 77u * i;
    sum[i] = a[i] + b[i];
  }
  auto run_blocking = [&](FpgaSystem& sys) {
    const auto r = runtime::RunVecAddVim(sys, a, b);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().output, sum);
    return r.value().report;
  };

  ExecutionReport first_alone, second_alone, blocking_alone;
  {
    FpgaSystem sys(TestConfig());
    Vcopd daemon(sys.kernel());
    first_alone = run_job(sys, daemon, "first", 1);
  }
  {
    FpgaSystem sys(TestConfig());
    Vcopd daemon(sys.kernel());
    second_alone = run_job(sys, daemon, "second", 2);
  }
  {
    FpgaSystem sys(TestConfig());
    blocking_alone = run_blocking(sys);
  }

  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  expect_own_traffic(run_job(sys, daemon, "first", 1), first_alone);
  expect_own_traffic(run_blocking(sys), blocking_alone);
  expect_own_traffic(run_job(sys, daemon, "second", 2), second_alone);
}

/// FPGA_LOAD and vcopd configure the PLD by one route, so each sees what
/// the other left on the fabric.
TEST(VcopdTest, BlockingLoadsAndJobsShareOneConfigurationRoute) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  StagedJob job =
      StageTenant(sys, daemon, "tenant", MakeJob(App::kVecAdd, 1024, 4));
  ASSERT_TRUE(daemon.Wait(job.Submit(daemon).value()).ok());
  const bench::Job adpcm = MakeJob(App::kAdpcm, 1024, 4);
  const Result<runtime::VimRun<u8>> blocking = runtime::RunJob(sys, adpcm);
  ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
  EXPECT_EQ(blocking.value().output, adpcm.expect);
  ASSERT_TRUE(sys.Unload().ok());

  // The blocking load replaced vecadd: the job pays a full configuration.
  job.ClearOutput();
  const Result<JobResult> second = daemon.Wait(job.Submit(daemon).value());
  ASSERT_TRUE(second.ok() && second.value().status.ok());
  EXPECT_TRUE(job.Exact());
  EXPECT_EQ(second.value().reconfigurations, 1u);
  EXPECT_DOUBLE_EQ(ToMicroseconds(second.value().config_time),
                   11'718.75);  // 48 KB at 4 MiB/s

  // vcopd left vecadd active: loading it again is free.
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  EXPECT_EQ(sys.kernel().last_load_time(), 0u);

  // The daemon reports the fabric's one configuration count, the
  // blocking load's configuration included.
  const VcopdStats stats = daemon.stats();
  const hw::ConfigSlotStats& slots = sys.kernel().fabric().slot_stats();
  EXPECT_EQ(stats.reconfigurations, 3u);
  EXPECT_EQ(stats.reconfigurations, slots.misses);
  EXPECT_EQ(stats.total_config_time, slots.configure_time);
  EXPECT_EQ(stats.slot_activations, slots.hits);
  EXPECT_EQ(stats.total_activation_time, slots.activation_time);
}

// ----- FIFO policy: run to completion, batched by bit-stream -----

VcopdConfig FifoConfig() {
  VcopdConfig config;
  config.policy = ServicePolicy::kFifoBatch;
  return config;
}

/// Same-design jobs from three tenants run one after another in ticket
/// order, all under the one configuration the first job paid for.
TEST(VcopdFifoTest, SameDesignJobsRunInTicketOrderUnderOneConfiguration) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  std::vector<StagedJob> jobs;
  for (const char* name : {"first", "second", "third"}) {
    jobs.push_back(StageTenant(
        sys, daemon, name,
        MakeJob(App::kVecAdd, 1024, 40 + static_cast<u32>(jobs.size()))));
  }
  std::vector<Ticket> tickets;
  for (const StagedJob& job : jobs) {
    tickets.push_back(job.Submit(daemon).value());
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().reconfigurations, 1u);
  for (usize i = 0; i < jobs.size(); ++i) {
    const std::optional<JobResult> r = daemon.Poll(tickets[i]);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_LT(r->started_at, r->finished_at);
    if (i > 0) {
      EXPECT_GE(r->started_at, daemon.Poll(tickets[i - 1])->finished_at);
    }
    EXPECT_TRUE(jobs[i].Exact());
  }
}

/// Strict ring order: skip budget 0 and a 1 s slice, so no job is
/// preempted. With one job per tenant it serves jobs in submission
/// order, the FIFO reference the batching order is measured against.
VcopdConfig StrictRingConfig() {
  VcopdConfig config;
  config.affinity_skip_budget = 0;
  config.time_slice = kPicosecondsPerSecond;
  return config;
}

struct AlternatingRun {
  VcopdStats stats;
  Picoseconds makespan = 0;
  bool ticket_order_within_design = true;
};

/// Six jobs alternating vecadd / gather, one per tenant, every output
/// checked byte-exact.
AlternatingRun RunAlternatingDesigns(const VcopdConfig& config) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), config);
  std::vector<StagedJob> vecadds, gathers;
  for (u32 i = 0; i < 3; ++i) {
    vecadds.push_back(StageTenant(sys, daemon, "vecadd",
                                  MakeJob(App::kVecAdd, 512, 50 + i)));
    gathers.push_back(StageTenant(sys, daemon, "gather",
                                  MakeJob(App::kGather, 512, 53 + i)));
  }
  std::vector<Ticket> vecadd_tickets, gather_tickets;
  for (u32 i = 0; i < 3; ++i) {
    vecadd_tickets.push_back(vecadds[i].Submit(daemon).value());
    gather_tickets.push_back(gathers[i].Submit(daemon).value());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 6u);
  for (const std::vector<StagedJob>* jobs : {&vecadds, &gathers}) {
    for (const StagedJob& job : *jobs) EXPECT_TRUE(job.Exact());
  }

  AlternatingRun r;
  r.stats = daemon.stats();
  r.makespan = daemon.BuildScheduleReport().makespan;
  for (const std::vector<Ticket>* tickets :
       {&vecadd_tickets, &gather_tickets}) {
    for (usize i = 1; i < tickets->size(); ++i) {
      r.ticket_order_within_design &=
          daemon.Poll((*tickets)[i])->started_at >=
          daemon.Poll((*tickets)[i - 1])->finished_at;
    }
  }
  return r;
}

TEST(SchedulerTest, AlternatingDesignsReconfigureEveryJobUnderFifo) {
  EXPECT_EQ(RunAlternatingDesigns(StrictRingConfig()).stats.reconfigurations,
            6u);
}

/// kFifoBatch configures each design once, spends less time configuring
/// and finishes sooner than strict ring order.
TEST(SchedulerTest, BatchingAmortisesReconfiguration) {
  const AlternatingRun ring = RunAlternatingDesigns(StrictRingConfig());
  const AlternatingRun fifo = RunAlternatingDesigns(FifoConfig());
  EXPECT_EQ(fifo.stats.reconfigurations, 2u);
  EXPECT_LT(fifo.stats.total_config_time, ring.stats.total_config_time);
  EXPECT_LT(fifo.makespan, ring.makespan);
}

TEST(SchedulerTest, BatchPreservesSubmissionOrderWithinDesign) {
  EXPECT_TRUE(RunAlternatingDesigns(FifoConfig()).ticket_order_within_design);
}

/// A job whose tenant mapped no objects aborts on its first access: it
/// fails on its own, and the next tenant's job is still byte-exact.
TEST(VcopdFifoTest, UnmappedTenantsJobFailsAlone) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  const TenantId unmapped = daemon.RegisterTenant("unmapped").value();
  StagedJob mapped =
      StageTenant(sys, daemon, "mapped", MakeJob(App::kVecAdd, 1024, 60));
  const u32 params[] = {8u};
  const Ticket broken =
      daemon.Submit(unmapped, cp::VecAddBitstream(), params).value();
  const Ticket healthy = mapped.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  ASSERT_TRUE(daemon.Poll(broken).has_value());
  EXPECT_FALSE(daemon.Poll(broken)->status.ok());
  ASSERT_TRUE(daemon.Poll(healthy).has_value());
  EXPECT_TRUE(daemon.Poll(healthy)->status.ok())
      << daemon.Poll(healthy)->status.ToString();
  EXPECT_TRUE(mapped.Exact());
}

/// A design larger than the PLD is refused at Submit, before it can
/// queue; the tenant's other jobs still complete.
TEST(VcopdFifoTest, OversizedDesignRejectedAtSubmit) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  StagedJob job =
      StageTenant(sys, daemon, "tenant", MakeJob(App::kVecAdd, 1024, 61));
  hw::Bitstream oversized = cp::VecAddBitstream();
  oversized.logic_elements = sys.kernel().config().pld_capacity_les + 1;

  const Ticket before = job.Submit(daemon).value();
  const Result<Ticket> rejected =
      daemon.Submit(job.tenant, oversized, job.job.params);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kResourceExhausted);
  const Ticket after = job.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().submitted, 2u);
  EXPECT_EQ(daemon.stats().completed, 2u);
  EXPECT_TRUE(daemon.Poll(before)->status.ok());
  EXPECT_TRUE(daemon.Poll(after)->status.ok());
  EXPECT_TRUE(job.Exact());
}

/// Of two queued jobs the second waits for the first: it starts after
/// its submission and its turnaround is the longer one.
TEST(VcopdFifoTest, TurnaroundAccountsWaiting) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  StagedJob first =
      StageTenant(sys, daemon, "first", MakeJob(App::kVecAdd, 8192, 62));
  StagedJob second =
      StageTenant(sys, daemon, "second", MakeJob(App::kVecAdd, 8192, 63));
  const Ticket t1 = first.Submit(daemon).value();
  const Ticket t2 = second.Submit(daemon).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const std::optional<JobResult> r1 = daemon.Poll(t1);
  const std::optional<JobResult> r2 = daemon.Poll(t2);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  ASSERT_TRUE(r1->status.ok());
  ASSERT_TRUE(r2->status.ok());
  EXPECT_GT(r2->wait(), 0u);
  EXPECT_GT(r2->turnaround(), r1->turnaround());
  EXPECT_TRUE(first.Exact());
  EXPECT_TRUE(second.Exact());
}

// ----- reconfiguration-aware serving (DESIGN.md §15) -----

KernelConfig SlottedConfig(u32 slots) {
  KernelConfig config = TestConfig();
  config.config_slots = slots;
  return config;
}

/// With one slot per distinct design, only the first use of each
/// design pays a full configuration; every later alternation is a slot
/// activation.
TEST(VcopdReconfigTest, SlotCacheActivatesInsteadOfReconfiguring) {
  FpgaSystem sys(SlottedConfig(3));
  Vcopd daemon(sys.kernel());

  StagedJob adpcm =
      StageTenant(sys, daemon, "adpcm", MakeJob(App::kAdpcm, 2 * 1024, 21));
  StagedJob vecadd =
      StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 2048, 22));
  // Two designs alternating over three rounds: a, v, a, v, a, v.
  for (u32 round = 0; round < 3; ++round) {
    ASSERT_TRUE(adpcm.Submit(daemon).ok());
    ASSERT_TRUE(vecadd.Submit(daemon).ok());
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().completed, 6u);
  EXPECT_TRUE(adpcm.Exact());
  EXPECT_TRUE(vecadd.Exact());
  // First use of each design is a miss; every alternation after that
  // activates a resident slot.
  EXPECT_EQ(daemon.stats().reconfigurations, 2u);
  EXPECT_GE(daemon.stats().slot_activations, 4u);
  EXPECT_GT(daemon.stats().total_activation_time, 0u);

  const hw::ConfigSlotStats& slots = sys.kernel().fabric().slot_stats();
  EXPECT_EQ(slots.misses, 2u);
  EXPECT_EQ(slots.evictions, 0u);  // 2 designs never contend for 3 slots
  EXPECT_EQ(slots.hits, daemon.stats().slot_activations);
  // Activating a resident design is orders of magnitude cheaper than
  // configuring it: the whole activation budget stays below a single
  // full configuration.
  EXPECT_LT(slots.activation_time, slots.configure_time / 2);
}

/// A preempted tenant whose design is still resident on resume pays an
/// activation, not a reconfiguration: its job counts exactly the one
/// initial configuration.
TEST(VcopdReconfigTest, ResumeViaActivationWhenDesignStaysResident) {
  FpgaSystem sys(SlottedConfig(3));
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;  // 50 us: forces preemption
  config.quantum = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);

  StagedJob first =
      StageTenant(sys, daemon, "alpha", MakeJob(App::kAdpcm, 12 * 1024, 24));
  StagedJob second =
      StageTenant(sys, daemon, "beta", MakeJob(App::kAdpcm, 12 * 1024, 25));
  StagedJob vecadd =
      StageTenant(sys, daemon, "gamma", MakeJob(App::kVecAdd, 8192, 26));
  const Ticket t1 = first.Submit(daemon).value();
  ASSERT_TRUE(second.Submit(daemon).ok());
  ASSERT_TRUE(vecadd.Submit(daemon).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_GT(daemon.stats().preemptions, 0u);
  const std::optional<JobResult> r1 = daemon.Poll(t1);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r1->status.ok());
  EXPECT_GT(r1->preemptions, 0u);
  // Both designs fit the 3-slot cache, so resumed slices re-activate
  // instead of reconfiguring: the job paid exactly one configuration.
  EXPECT_EQ(r1->reconfigurations, 1u);
  EXPECT_TRUE(first.Exact());
  EXPECT_TRUE(second.Exact());
  EXPECT_TRUE(vecadd.Exact());
  EXPECT_EQ(sys.kernel().fabric().slot_stats().evictions, 0u);
}

/// The interleaving the satellite task names: a tenant is preempted,
/// other designs flood a cache smaller than the design working set and
/// evict its slot, and the resumed slice pays a full reconfiguration —
/// visible as reconfigurations > 1 on a single job.
TEST(VcopdReconfigTest, ResumeViaCacheMissAfterEviction) {
  FpgaSystem sys(SlottedConfig(2));
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;
  config.quantum = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);

  // Three distinct designs against two slots: while alpha is
  // preempted, idea + vecadd occupy both slots and evict adpcm.
  StagedJob alpha =
      StageTenant(sys, daemon, "alpha", MakeJob(App::kAdpcm, 12 * 1024, 27));
  StagedJob vecadd =
      StageTenant(sys, daemon, "vec", MakeJob(App::kVecAdd, 8192, 28));
  StagedJob idea =
      StageTenant(sys, daemon, "idea", MakeJob(App::kIdea, 8 * 1024, 29));

  const Ticket ta = alpha.Submit(daemon).value();
  ASSERT_TRUE(idea.Submit(daemon).ok());
  ASSERT_TRUE(vecadd.Submit(daemon).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const std::optional<JobResult> ra = daemon.Poll(ta);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(ra->status.ok());
  EXPECT_GT(ra->preemptions, 0u);
  // The resumed slice found its slot evicted: >= 2 full
  // configurations charged to one job.
  EXPECT_GE(ra->reconfigurations, 2u);
  EXPECT_GT(sys.kernel().fabric().slot_stats().evictions, 0u);
  EXPECT_TRUE(alpha.Exact());
  EXPECT_TRUE(idea.Exact());
  EXPECT_TRUE(vecadd.Exact());

  // Satellite 1's under-reporting fix: the schedule report rolls the
  // per-slice count up, not just a first-slice bool.
  const ScheduleReport report = daemon.BuildScheduleReport();
  u32 alpha_reconfigs = 0;
  for (const JobResult& outcome : report.outcomes) {
    if (outcome.bitstream == cp::AdpcmDecodeBitstream().name) {
      alpha_reconfigs += outcome.reconfigurations;
    }
  }
  EXPECT_GE(alpha_reconfigs, 2u);
}

/// Design-affinity DRR converts design ping-pong into batched service
/// without starving anyone: same fleet, fewer reconfigurations than
/// strict ring order (skip budget 0), exact outputs, and every job
/// completes.
TEST(VcopdReconfigTest, AffinityReducesSwitchesAndKeepsOutputsExact) {
  VcopdStats stats_off, stats_on;
  for (const bool affinity : {false, true}) {
    FpgaSystem sys(TestConfig());
    VcopdConfig config;
    config.policy = ServicePolicy::kFairShare;
    config.time_slice = 50ull * 1000 * 1000;
    if (!affinity) config.affinity_skip_budget = 0;
    Vcopd daemon(sys.kernel(), config);

    StagedJob adpcm =
        StageTenant(sys, daemon, "adpcm", MakeJob(App::kAdpcm, 4 * 1024, 29));
    StagedJob vecadd =
        StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 4096, 30));
    for (u32 round = 0; round < 3; ++round) {
      ASSERT_TRUE(adpcm.Submit(daemon).ok());
      ASSERT_TRUE(vecadd.Submit(daemon).ok());
    }
    ASSERT_TRUE(daemon.RunUntilIdle().ok());
    EXPECT_EQ(daemon.stats().completed, 6u);
    EXPECT_EQ(daemon.stats().failed, 0u);
    EXPECT_TRUE(adpcm.Exact());
    EXPECT_TRUE(vecadd.Exact());
    (affinity ? stats_on : stats_off) = daemon.stats();
  }
  // Affinity batches same-design jobs (bounded by the skip budget), so
  // it switches strictly less than strict ring order does.
  EXPECT_LT(stats_on.reconfigurations, stats_off.reconfigurations);
  EXPECT_GT(stats_on.reconfigurations, 0u);
}

/// The skip budget is the no-starvation bound. Ring order is adpcm-0,
/// vecadd, adpcm-1, adpcm-2 on one slot; every ring pass meets vecadd
/// as the strict choice while adpcm is loaded, so the bypass serves the
/// three adpcm tenants once per pass until vecadd has been skipped
/// `budget` times: exactly 1 + 3 x budget adpcm jobs precede it.
TEST(VcopdReconfigTest, SkipBudgetBoundsBypassesOfNonResidentTenant) {
  for (const u32 budget : {0u, 1u, 4u}) {
    FpgaSystem sys(TestConfig());
    VcopdConfig config;
    config.policy = ServicePolicy::kFairShare;
    config.time_slice = kPicosecondsPerSecond;  // never preempt
    config.quantum = 1;  // one job per pick
    config.affinity_skip_budget = budget;
    Vcopd daemon(sys.kernel(), config);

    StagedJob a0 =
        StageTenant(sys, daemon, "adpcm-0", MakeJob(App::kAdpcm, 512, 33));
    StagedJob vecadd =
        StageTenant(sys, daemon, "vecadd", MakeJob(App::kVecAdd, 1024, 34));
    StagedJob a1 =
        StageTenant(sys, daemon, "adpcm-1", MakeJob(App::kAdpcm, 512, 35));
    StagedJob a2 =
        StageTenant(sys, daemon, "adpcm-2", MakeJob(App::kAdpcm, 512, 36));
    u32 adpcm_done = 0;
    u32 adpcm_before_vecadd = 0;
    for (const StagedJob* job : {&a0, &a1, &a2}) {
      for (u32 i = 0; i < 6; ++i) {
        ASSERT_TRUE(
            job->Submit(daemon, [&](const JobResult&) { ++adpcm_done; }).ok());
      }
    }
    ASSERT_TRUE(vecadd
                    .Submit(daemon,
                            [&](const JobResult&) {
                              adpcm_before_vecadd = adpcm_done;
                            })
                    .ok());
    ASSERT_TRUE(daemon.RunUntilIdle().ok());

    EXPECT_EQ(adpcm_before_vecadd, 1 + 3 * budget) << "budget " << budget;
    EXPECT_EQ(daemon.stats().completed, 19u);
    EXPECT_EQ(daemon.stats().preemptions, 0u);
    EXPECT_TRUE(vecadd.Exact());
    for (const StagedJob* job : {&a0, &a1, &a2}) {
      EXPECT_TRUE(job->Exact());
    }
  }
}

}  // namespace
}  // namespace vcop::os
