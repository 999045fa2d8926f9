// Randomized fault-injection torture harness — the headline test of the
// fault substrate (DESIGN.md §9).
//
// Thousands of seeded FaultPlans run the four reference workloads
// (adpcmdecode, IDEA, vecadd, conv3x3), and on every 16th seed a random
// gather that thrashes the dual-port RAM, against the software model.
// The runs come from the seeded fault-plan grid that bench_faults and
// bench_fastforward run too (bench/common.h, RunGrid). The invariant
// under torture is absolute: every run either completes with output
// byte-identical to the software reference, or fails with a clean
// non-OK Status — no hangs, no unbounded simulated time, no silently
// corrupted results, and nothing left to tick once it ends (the grid's
// end-of-run audit aborts otherwise). Each failure is replayable from
// its seed alone (base/fault.h).
//
// TORTURE_SEEDS in the environment overrides the seed count (CI's
// sanitizer job runs a reduced smoke; the default is the acceptance
// floor of 1000).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "base/fault.h"
#include "bench/common.h"
#include "cp/registry.h"
#include "os/service.h"
#include "os/vcopd.h"
#include "os/vim.h"
#include "sim/fleet.h"
#include "runtime/config.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using bench::FreshRun;
using runtime::Epxa1Config;
using runtime::FpgaSystem;

u32 TortureSeeds() {
  if (const char* env = std::getenv("TORTURE_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<u32>(n);
  }
  return 1000;
}

/// Any run that pushes the simulated clock past this is considered hung
/// (the workloads finish in well under a simulated second; the watchdog
/// bounds every recovery path in single-digit milliseconds).
constexpr Picoseconds kSimTimeBound = 10ull * 1000 * 1000 * 1000 * 1000;

/// Runs the grid's workload for `seed` (streaming, or with `gather` the
/// thrashing gather) on the EPXA1 platform under `plan` (nullptr = no
/// plan installed at all). With `iommu` the zero-copy DMA path
/// (`copy_mode = iommu`, DESIGN.md §13) replaces the paper's double copy
/// — the deterministic IOMMU-site tests below run on it.
FreshRun TortureRun(u64 seed, FaultPlan* plan, bool iommu = false,
                    bool gather = false) {
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode =
      iommu ? mem::CopyMode::kIommu : mem::CopyMode::kDoubleCopy;
  return bench::RunGrid(seed, config, plan, gather);
}

/// Every kGatherEvery-th seed of the sweep also runs the thrashing
/// gather, under a plan of the same shape scaled by kGatherIntensity: its
/// thousands of transfers and faults would otherwise draw dozens of
/// faults per run and exhaust nearly every fault budget.
constexpr u64 kGatherEvery = 16;
constexpr double kGatherIntensity = 0.05;

// ----- the randomized harness -----

TEST(TortureTest, SeededFaultPlansCompleteExactlyOrFailCleanly) {
  const u32 seeds = TortureSeeds();
  // Every seed is an isolated simulation, so the sweep fans out over
  // the fleet runner; results land by seed index and the verdicts below
  // are evaluated in seed order, identical to the old sequential loop.
  struct RunVerdict {
    bool ok = false;
    bool exact = false;
    u64 injected = 0;
    Picoseconds sim_now = 0;
    os::VimAccounting vim;  // valid when ok
  };
  struct SeedVerdict {
    RunVerdict streaming;
    std::optional<RunVerdict> gather;
  };
  const auto run = [](u64 seed, bool gather, double intensity) {
    FaultPlan plan = FaultPlan::Random(seed, intensity);
    const FreshRun out = TortureRun(seed, &plan, /*iommu=*/false, gather);
    return RunVerdict{out.status.ok(), out.exact, plan.total_injected(),
                      out.sim_now, out.report.vim};
  };
  const std::vector<SeedVerdict> verdicts = sim::FleetMap<SeedVerdict>(
      seeds, [&run](usize i) -> SeedVerdict {
        const u64 seed = static_cast<u64>(i) + 1;
        SeedVerdict v;
        v.streaming = run(seed, /*gather=*/false, 1.0);
        if (seed % kGatherEvery == 0) {
          v.gather = run(seed, /*gather=*/true, kGatherIntensity);
        }
        return v;
      });
  u32 completed = 0;
  u32 failed = 0;
  u64 injected_total = 0;
  u32 gathers = 0;
  u32 gathers_completed = 0;
  u64 gather_evictions = 0;
  u64 gather_writebacks = 0;
  u64 gather_reloads = 0;
  for (usize i = 0; i < verdicts.size(); ++i) {
    const u64 seed = static_cast<u64>(i) + 1;
    const RunVerdict& v = verdicts[i].streaming;
    injected_total += v.injected;
    ASSERT_LT(v.sim_now, kSimTimeBound) << "seed " << seed << " hung";
    if (v.ok) {
      ++completed;
      ASSERT_TRUE(v.exact)
          << "seed " << seed << ": run reported success with output "
          << "differing from the software reference (" << v.injected
          << " faults injected)";
    } else {
      ++failed;  // a clean, replayable failure is an accepted outcome
    }
    if (!verdicts[i].gather.has_value()) continue;
    const RunVerdict& g = *verdicts[i].gather;
    ++gathers;
    ASSERT_LT(g.sim_now, kSimTimeBound) << "seed " << seed << " gather hung";
    if (!g.ok) continue;
    ASSERT_TRUE(g.exact)
        << "seed " << seed << ": gather reported success with output "
        << "differing from the software reference (" << g.injected
        << " faults injected)";
    ++gathers_completed;
    gather_evictions += g.vim.evictions;
    gather_writebacks += g.vim.writebacks;
    gather_reloads += g.vim.kernel_copy_loads;
  }
  EXPECT_EQ(completed + failed, seeds);
  // The mix must actually exercise both paths: most plans are
  // recoverable, some (hangs, config errors, saturated buses) are not.
  EXPECT_GT(completed, seeds / 4);
  if (seeds >= 200) {
    EXPECT_GT(failed, 0u);
    EXPECT_GT(injected_total, 0u);
  }
  // The gathers must really thrash under their plans: evict, write
  // back mid-run (more than the 12 OUT pages' final write-backs) and
  // re-load from the kernel's bounce copies.
  if (gathers_completed > 0) {
    EXPECT_GT(gather_evictions, 0u);
    EXPECT_GT(gather_writebacks, 12u * gathers_completed);
    EXPECT_GT(gather_reloads, 0u);
  }
  if (seeds >= 200) {
    EXPECT_GT(gathers_completed, gathers / 2);
  }
  RecordProperty("completed", static_cast<int>(completed));
  RecordProperty("failed", static_cast<int>(failed));
  RecordProperty("gathers", static_cast<int>(gathers));
  RecordProperty("gathers_completed", static_cast<int>(gathers_completed));
}

TEST(TortureTest, FailuresAreReplayableFromSeedAlone) {
  for (const u64 seed : {5ull, 13ull, 21ull, 34ull, 55ull}) {
    FaultPlan first_plan = FaultPlan::Random(seed);
    FaultPlan second_plan = FaultPlan::Random(seed);
    const FreshRun first = TortureRun(seed, &first_plan);
    const FreshRun second = TortureRun(seed, &second_plan);
    EXPECT_EQ(first.status.code(), second.status.code()) << "seed " << seed;
    EXPECT_EQ(first.output, second.output) << "seed " << seed;
    EXPECT_EQ(first.sim_now, second.sim_now) << "seed " << seed;
    EXPECT_EQ(first_plan.total_injected(), second_plan.total_injected())
        << "seed " << seed;
  }
}

// ----- the acceptance invariant: an empty plan is exactly free -----

TEST(TortureTest, EmptyPlanIsBitIdenticalToTheFaultFreeEngine) {
  for (u64 workload = 0; workload < 4; ++workload) {
    const u64 seed = 100 + workload;  // seed % 4 selects the workload
    const FreshRun bare = TortureRun(seed, nullptr);
    FaultPlan empty;
    ASSERT_TRUE(empty.empty());
    const FreshRun with_plan = TortureRun(seed, &empty);

    ASSERT_TRUE(bare.status.ok()) << bare.status.ToString();
    ASSERT_TRUE(with_plan.status.ok()) << with_plan.status.ToString();
    EXPECT_TRUE(bare.exact);
    EXPECT_TRUE(with_plan.exact);
    EXPECT_EQ(bare.output, with_plan.output) << "workload " << workload;
    // The whole report — wall time included — must be bit-identical:
    // with nothing armed, not a single extra event may be scheduled.
    EXPECT_EQ(bench::ReportMismatch(bare.report, with_plan.report), "")
        << "workload " << workload;
    EXPECT_EQ(bare.sim_now, with_plan.sim_now);
    EXPECT_EQ(bare.events, with_plan.events);
    // And no recovery machinery may have woken up.
    EXPECT_EQ(with_plan.service.watchdog_wakeups, 0u);
    EXPECT_EQ(with_plan.service.transfer_retries, 0u);
  }
}

// ----- targeted deterministic recovery paths -----

TEST(TortureTest, TransferBusErrorIsRetriedToExactCompletion) {
  FaultPlan plan;
  plan.At(FaultSite::kAhbError, 1);  // first page transfer bus-errors
  const FreshRun out = TortureRun(2, &plan);  // vecadd
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GE(out.service.transfer_retries, 1u);
  EXPECT_EQ(out.service.transfer_retry_failures, 0u);
}

TEST(TortureTest, SaturatedBusFailsCleanlyAfterRetryExhaustion) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kAhbError, 1.0);  // every transfer dies
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_FALSE(out.status.ok());
  EXPECT_GE(out.service.transfer_retry_failures, 1u);
  ASSERT_LT(out.sim_now, kSimTimeBound);
}

TEST(TortureTest, AllInterruptsDroppedIsRecoveredByTheWatchdog) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kIrqDrop, 1.0);  // CPU never sees an IRQ
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GT(out.service.watchdog_recoveries, 0u);
  EXPECT_GT(out.service.watchdog_wakeups, 0u);
}

TEST(TortureTest, DuplicateInterruptsAreServicedIdempotently) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kIrqDuplicate, 1.0);  // every IRQ twice
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GT(out.service.duplicate_irqs_ignored, 0u);
}

TEST(TortureTest, SpuriousFaultInterruptsAreIgnored) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kSpuriousFault, 1.0);
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GT(out.service.spurious_faults_ignored +
                out.service.duplicate_irqs_ignored,
            0u);
}

TEST(TortureTest, TlbParityCorruptionIsDetectedAndRefilled) {
  FaultPlan plan;
  plan.At(FaultSite::kTlbParity, 1);  // first installed entry corrupted
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GE(out.service.tlb_parity_drops, 1u);
}

TEST(TortureTest, SeededTlbWritePlansAreDeterministicOnTheCam) {
  // Seeded parity plans against the CAM replay bit-identically: same
  // outputs, same final timestamp, same injection counts.
  for (const u64 seed : {1ull, 2ull, 3ull, 5ull, 8ull}) {
    FaultPlan plan_a;
    plan_a.WithProbability(FaultSite::kTlbParity, 0.25);
    FaultPlan plan_b;
    plan_b.WithProbability(FaultSite::kTlbParity, 0.25);
    const FreshRun a = TortureRun(seed, &plan_a);
    const FreshRun b = TortureRun(seed, &plan_b);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_TRUE(a.status.ok()) << a.status.ToString();
    EXPECT_TRUE(a.exact);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.sim_now, b.sim_now);
    EXPECT_EQ(plan_a.stats(FaultSite::kTlbParity).injected,
              plan_b.stats(FaultSite::kTlbParity).injected);
  }
}

TEST(TortureTest, IommuTranslationFaultIsRetriedToExactCompletion) {
  FaultPlan plan;
  plan.At(FaultSite::kIommuTranslationFault, 1);  // first walk faults
  const FreshRun out = TortureRun(2, &plan, /*iommu=*/true);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  EXPECT_GE(out.report.vim.iommu_faults, 1u);
  EXPECT_GE(out.service.transfer_retries, 1u);
  EXPECT_EQ(out.service.transfer_retry_failures, 0u);
  EXPECT_EQ(plan.stats(FaultSite::kIommuTranslationFault).injected, 1u);
}

TEST(TortureTest, SaturatedIommuWalksFailCleanlyAfterRetryExhaustion) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kIommuTranslationFault, 1.0);
  const FreshRun out = TortureRun(2, &plan, /*iommu=*/true);
  ASSERT_FALSE(out.status.ok());
  EXPECT_GE(out.service.transfer_retry_failures, 1u);
  ASSERT_LT(out.sim_now, kSimTimeBound);
}

TEST(TortureTest, IotlbCorruptionIsDroppedAndRewalkedTransparently) {
  FaultPlan plan;
  plan.At(FaultSite::kIotlbCorrupt, 1);  // first IO-TLB hit is damaged
  const FreshRun out = TortureRun(2, &plan, /*iommu=*/true);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.exact);
  // Parity recovery is invisible to the service layer: no retries, no
  // recovered faults — only the plan's counter knows it fired.
  EXPECT_EQ(out.report.vim.iommu_faults, 0u);
  EXPECT_EQ(plan.stats(FaultSite::kIotlbCorrupt).injected, 1u);
}

TEST(TortureTest, RandomPlansNeverArmTheIommuSites) {
  // FaultPlan::Random deliberately excludes the IOMMU sites (they only
  // present opportunities when the subsystem is on). Pin that: even on
  // the iommu path, random plans give them opportunities but never fire.
  for (const u64 seed : {3ull, 8ull, 17ull}) {
    FaultPlan plan = FaultPlan::Random(seed);
    const FreshRun out = TortureRun(seed * 4 + 2, &plan, true);
    ASSERT_LT(out.sim_now, kSimTimeBound);
    EXPECT_EQ(plan.stats(FaultSite::kIommuTranslationFault).injected, 0u);
    EXPECT_EQ(plan.stats(FaultSite::kIotlbCorrupt).injected, 0u);
    EXPECT_GT(plan.stats(FaultSite::kIommuTranslationFault).opportunities,
              0u);
  }
}

TEST(TortureTest, CoprocessorHangIsAbortedByTheWatchdog) {
  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // first translation never answers
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), ErrorCode::kUnavailable)
      << out.status.ToString();
  EXPECT_GE(out.service.watchdog_hang_aborts, 1u);
  // The hang is detected within a small number of watchdog periods,
  // not at the event-budget backstop.
  ASSERT_LT(out.sim_now, kSimTimeBound);
}

TEST(TortureTest, ConfigurationFaultFailsTheLoadCleanly) {
  FaultPlan plan;
  plan.At(FaultSite::kConfigError, 1);
  const FreshRun out = TortureRun(2, &plan);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), ErrorCode::kUnavailable)
      << out.status.ToString();
}

// ----- configuration-cache fault sites (hw/fabric.h, DESIGN.md §15) --

/// Two designs alternating on a two-slot fabric under vcopd. With a
/// giant time slice and no affinity skips the dispatch order is the DRR
/// ring verbatim — adpcm, vecadd, adpcm, vecadd — so kConfigError
/// opportunities are deterministic: 1 = configure adpcm, 2 = configure
/// vecadd, 3 = activate adpcm (resident hit), 4 = activate vecadd.
struct SlotRig {
  FpgaSystem sys;
  os::Vcopd daemon;
  bench::StagedJob adpcm, vec;

  static os::KernelConfig Config() {
    os::KernelConfig config = Epxa1Config();
    config.config_slots = 2;
    return config;
  }
  static os::VcopdConfig DaemonConfig() {
    os::VcopdConfig config;
    config.policy = os::ServicePolicy::kFairShare;
    config.time_slice = 1ull * 1000 * 1000 * 1000 * 1000;  // never preempt
    // Strict ring order: affinity would batch adpcm behind its resident
    // slot and skip the activation sites this rig strikes.
    config.affinity_skip_budget = 0;
    return config;
  }

  SlotRig()
      : sys(Config()),
        daemon(sys.kernel(), DaemonConfig()),
        adpcm(bench::StageTenant(sys, daemon, "adpcm",
                                 bench::MakeJob(bench::App::kAdpcm, 512, 1))),
        vec(bench::StageTenant(sys, daemon, "vec",
                               bench::MakeJob(bench::App::kVecAdd, 512, 1))) {}

  /// Submits adpcm/vecadd jobs interleaved and drains; returns the
  /// per-ticket statuses in submission order.
  std::vector<Status> Drain(u32 rounds) {
    std::vector<os::Ticket> tickets;
    for (u32 round = 0; round < rounds; ++round) {
      tickets.push_back(adpcm.Submit(daemon).value());
      tickets.push_back(vec.Submit(daemon).value());
    }
    VCOP_CHECK(daemon.RunUntilIdle().ok());
    std::vector<Status> statuses;
    for (const os::Ticket ticket : tickets) {
      const std::optional<os::JobResult> result = daemon.Poll(ticket);
      VCOP_CHECK(result.has_value());
      statuses.push_back(result->status);
    }
    return statuses;
  }

  /// The absolute invariant: any job that completed left the exact
  /// reference bytes (its jobs are idempotent over the same input).
  void CheckOutputs(const std::vector<Status>& statuses) {
    bool adpcm_ok = false, vec_ok = false;
    for (usize i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) {
        EXPECT_EQ(statuses[i].code(), ErrorCode::kUnavailable)
            << statuses[i].ToString();
        continue;
      }
      (i % 2 == 0 ? adpcm_ok : vec_ok) = true;
    }
    if (adpcm_ok) {
      EXPECT_TRUE(adpcm.Exact());
    }
    if (vec_ok) {
      EXPECT_TRUE(vec.Exact());
    }
  }
};

/// A CRC fault on the 256-byte activation stream of a resident design
/// fails that job cleanly, evicts the damaged slot, and the next use
/// of the design recovers with a full reconfiguration.
TEST(TortureTest, SlotActivationCrcFaultFailsCleanlyAndEvictsTheSlot) {
  SlotRig rig;
  FaultPlan plan;
  plan.At(FaultSite::kConfigError, 3);  // adpcm's re-activation
  rig.sys.kernel().InstallFaultPlan(&plan);
  const std::vector<Status> statuses = rig.Drain(2);
  rig.sys.kernel().InstallFaultPlan(nullptr);

  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_TRUE(statuses[0].ok());   // configure adpcm
  EXPECT_TRUE(statuses[1].ok());   // configure vecadd
  ASSERT_FALSE(statuses[2].ok());  // adpcm activation hits the CRC fault
  EXPECT_EQ(statuses[2].code(), ErrorCode::kUnavailable)
      << statuses[2].ToString();
  EXPECT_TRUE(statuses[3].ok());   // vecadd is still the active design
  rig.CheckOutputs(statuses);
  EXPECT_EQ(rig.daemon.stats().failed, 1u);
  // The damaged slot was evicted, not left claiming a broken design...
  EXPECT_FALSE(rig.sys.kernel().fabric().DesignResident(
      cp::AdpcmDecodeBitstream().name));
  // ...so the tenant recovers by paying a fresh full configuration.
  const std::vector<Status> retry = rig.Drain(1);
  EXPECT_TRUE(retry[0].ok()) << retry[0].ToString();
  EXPECT_TRUE(retry[1].ok());
  EXPECT_TRUE(rig.adpcm.Exact());
  EXPECT_GE(rig.daemon.stats().reconfigurations, 3u);
  ASSERT_LT(rig.sys.kernel().simulator().now(), kSimTimeBound);
}

/// Seeded sweep over every configuration-port opportunity in the
/// alternating fleet (configures and activations alike): each plan
/// either completes every job exactly or fails the struck job cleanly,
/// and the outcome is replayable from the opportunity index alone.
TEST(TortureTest, SeededConfigFaultsAtSlotSitesFailCleanOrComplete) {
  for (u32 opportunity = 1; opportunity <= 5; ++opportunity) {
    std::vector<std::vector<Status>> outcomes;
    for (u32 replay = 0; replay < 2; ++replay) {
      SlotRig rig;
      FaultPlan plan;
      plan.At(FaultSite::kConfigError, opportunity);
      rig.sys.kernel().InstallFaultPlan(&plan);
      const std::vector<Status> statuses = rig.Drain(2);
      rig.sys.kernel().InstallFaultPlan(nullptr);
      rig.CheckOutputs(statuses);
      u32 failed = 0;
      for (const Status& status : statuses) failed += status.ok() ? 0 : 1;
      // Opportunity 5 is past the last configuration-port transfer of
      // the fleet: nothing fires.  Otherwise exactly one job is hit.
      EXPECT_EQ(failed, opportunity <= 4 ? 1u : 0u)
          << "opportunity " << opportunity;
      ASSERT_LT(rig.sys.kernel().simulator().now(), kSimTimeBound);
      outcomes.push_back(statuses);
    }
    ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
    for (usize i = 0; i < outcomes[0].size(); ++i) {
      EXPECT_EQ(outcomes[0][i].code(), outcomes[1][i].code())
          << "opportunity " << opportunity << " job " << i;
    }
  }
}

// ----- ring-transport fault sites (os/service.h) -----

/// Shared staging for the transport sites: one vecadd tenant attached
/// to a VcopService over vcopd.
struct ServiceRig {
  FpgaSystem sys;
  os::Vcopd daemon;
  os::VcopService service;
  bench::StagedJob job;

  ServiceRig()
      : sys(Epxa1Config()),
        daemon(sys.kernel()),
        service(daemon),
        job(bench::StageTenant(sys, daemon, "transport",
                               bench::MakeJob(bench::App::kVecAdd, 512, 1))) {
    VCOP_CHECK(service.AttachTenant(job.tenant).ok());
  }
};

/// The doorbell write vanishes between tenant and service. The
/// descriptor survives in shared memory and the service's re-poll
/// watchdog (armed because a fault plan is installed) rescues it within
/// one period — the job still completes exactly once, exactly right.
TEST(TortureTest, LostDoorbellIsRecoveredByServiceRepoll) {
  ServiceRig rig;
  FaultPlan plan;
  plan.At(FaultSite::kDoorbellLost, 1);
  rig.sys.kernel().InstallFaultPlan(&plan);

  runtime::VcopdClient client(rig.service, rig.job.tenant);
  const u64 cookie =
      client.SubmitRinged(cp::VecAddBitstream(), {128u}).value();
  EXPECT_EQ(rig.service.stats().doorbells_lost, 1u);
  EXPECT_EQ(rig.daemon.stats().submitted, 0u);  // the kick never landed

  const Result<os::CompletionDescriptor> done = client.Await(cookie);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kOk));
  EXPECT_GE(rig.service.stats().doorbells_recovered, 1u);
  EXPECT_GE(rig.service.stats().repoll_ticks, 1u);
  EXPECT_EQ(rig.daemon.stats().completed, 1u);
  EXPECT_TRUE(rig.job.Exact());
  ASSERT_LT(rig.sys.kernel().simulator().now(), kSimTimeBound);
  rig.sys.kernel().InstallFaultPlan(nullptr);
}

/// A descriptor damaged in shared memory between publish and drain is
/// caught by the drain-time checksum and completed with a clean
/// InvalidArgument — it never reaches the fabric; later descriptors in
/// the same ring are unaffected.
TEST(TortureTest, CorruptedDescriptorFailsCleanlyAndSparesTheRest) {
  ServiceRig rig;
  FaultPlan plan;
  plan.At(FaultSite::kDescriptorCorrupt, 1);
  rig.sys.kernel().InstallFaultPlan(&plan);

  runtime::VcopdClient client(rig.service, rig.job.tenant);
  const u64 doomed =
      client.SubmitRinged(cp::VecAddBitstream(), {128u}).value();
  const u64 healthy =
      client.SubmitRinged(cp::VecAddBitstream(), {128u}).value();

  const Result<os::CompletionDescriptor> bad = client.Await(doomed);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad.value().code,
            static_cast<u32>(ErrorCode::kInvalidArgument));
  EXPECT_EQ(rig.service.stats().descriptors_rejected, 1u);

  const Result<os::CompletionDescriptor> good = client.Await(healthy);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().code, static_cast<u32>(ErrorCode::kOk));
  EXPECT_EQ(rig.daemon.stats().submitted, 1u);  // only the intact one ran
  EXPECT_EQ(rig.daemon.stats().completed, 1u);
  EXPECT_TRUE(rig.job.Exact());
  ASSERT_LT(rig.sys.kernel().simulator().now(), kSimTimeBound);
  rig.sys.kernel().InstallFaultPlan(nullptr);
}

}  // namespace
}  // namespace vcop
