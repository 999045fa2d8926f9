// Tests for the ring-transport service layer (os/ring.h, os/service.h):
// split-ring index wrap-around, full-ring backpressure, descriptor
// checksums, the deterministic token bucket, doorbell coalescing,
// completion-interrupt suppression (bit-identical delivery on vs off),
// admission deferral, quarantined-tenant doorbells, and VcopdClient end
// to end.
#include <gtest/gtest.h>

#include <vector>

#include "base/fault.h"
#include "base/units.h"
#include "bench/common.h"
#include "cp/registry.h"
#include "os/ring.h"
#include "os/service.h"
#include "os/vcopd.h"
#include "runtime/fpga_api.h"

namespace vcop::os {
namespace {

using bench::App;
using bench::MakeJob;
using bench::StagedJob;
using bench::StageTenant;
using runtime::FpgaSystem;
using runtime::VcopdClient;

KernelConfig TestConfig() {
  KernelConfig config;  // EPXA1 defaults: 8 x 2KB pages, 8-entry TLB
  return config;
}

// ----- split rings (pure units, no simulator) -----

TEST(SplitRingTest, FullSubmissionRingRejectsWithoutBlocking) {
  SubmissionRing ring(4);
  for (u32 i = 0; i < 4; ++i) {
    RingDescriptor d;
    d.cookie = i + 1;
    ASSERT_TRUE(ring.Publish(d).ok());
  }
  EXPECT_EQ(ring.size(), 4u);
  RingDescriptor extra;
  extra.cookie = 99;
  const Status refused = ring.Publish(extra);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(ring.stats().full_rejections, 1u);
  EXPECT_EQ(ring.stats().published, 4u);

  // Consuming one slot restores admission; order is FIFO.
  EXPECT_EQ(ring.Consume().cookie, 1u);
  EXPECT_TRUE(ring.Publish(extra).ok());
  EXPECT_EQ(ring.Consume().cookie, 2u);
}

/// The free-running u16 indices wrap past 65535 in normal operation;
/// FIFO order and occupancy accounting must survive the wrap.
TEST(SplitRingTest, SubmissionIndexWrapKeepsFifoOrder) {
  SubmissionRing ring(4);
  constexpr u64 kCycles = 70'000;  // > 65536: forces a u16 wrap
  u64 next_publish = 1;
  u64 next_consume = 1;
  // Keep two descriptors in flight so slots are reused at both offsets.
  for (int i = 0; i < 2; ++i) {
    RingDescriptor d;
    d.cookie = next_publish++;
    ASSERT_TRUE(ring.Publish(d).ok());
  }
  while (next_consume <= kCycles) {
    if (next_publish <= kCycles + 2) {
      RingDescriptor d;
      d.cookie = next_publish++;
      ASSERT_TRUE(ring.Publish(d).ok());
    }
    const RingDescriptor head = ring.Consume();
    ASSERT_EQ(head.cookie, next_consume) << "FIFO broke at the wrap";
    ASSERT_TRUE(head.Intact());
    ++next_consume;
  }
  EXPECT_GE(ring.stats().index_wraps, 1u);
  EXPECT_EQ(ring.stats().published, kCycles + 2);
  EXPECT_EQ(ring.stats().consumed, kCycles);
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SplitRingTest, CompletionIndexWrapKeepsFifoOrder) {
  CompletionRing ring(2);
  constexpr u64 kCycles = 70'000;
  for (u64 i = 1; i <= kCycles; ++i) {
    CompletionDescriptor c;
    c.cookie = i;
    ASSERT_TRUE(ring.Push(c).ok());
    ASSERT_EQ(ring.Reap().cookie, i);
  }
  EXPECT_GE(ring.stats().index_wraps, 1u);
  EXPECT_TRUE(ring.empty());
}

TEST(SplitRingTest, ChecksumSealsAndDetectsCorruption) {
  SubmissionRing ring(2);
  RingDescriptor d;
  d.cookie = 7;
  d.design = 3;
  d.nparams = 2;
  d.params[0] = 0x1234;
  d.params[1] = 0x5678;
  ASSERT_TRUE(ring.Publish(d).ok());  // Publish seals
  EXPECT_TRUE(ring.Head().Intact());
  ring.Head().params[0] ^= 0xdeadbeefu;  // damage it in "shared memory"
  EXPECT_FALSE(ring.Head().Intact());
  ring.Head().params[0] ^= 0xdeadbeefu;  // repair restores the seal
  EXPECT_TRUE(ring.Head().Intact());
}

TEST(SplitRingTest, RejectsNonPowerOfTwoAndOutOfRangeSizes) {
  EXPECT_DEATH(SubmissionRing ring(3), "");
  EXPECT_DEATH(SubmissionRing ring(0), "");
  EXPECT_DEATH(SubmissionRing ring(65536), "");
  EXPECT_DEATH(CompletionRing ring(6), "");
}

TEST(SplitRingTest, SuppressionLiftReportsPendingCompletions) {
  CompletionRing ring(4);
  EXPECT_FALSE(ring.SetSuppressed(true));  // nothing pending yet
  CompletionDescriptor c;
  c.cookie = 1;
  ASSERT_TRUE(ring.Push(c).ok());
  // Completions arrived during the window: the lift must report them,
  // because their notifications were elided (the virtio re-check).
  EXPECT_TRUE(ring.SetSuppressed(false));
  ring.Reap();
  EXPECT_FALSE(ring.SetSuppressed(false));  // empty ring: no re-check
}

// ----- token bucket -----

TEST(TokenBucketTest, UnlimitedRateAlwaysAdmits) {
  TokenBucket bucket(0, 1, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_EQ(bucket.NextTokenAt(12345), 12345u);
}

TEST(TokenBucketTest, BurstThenExactAccrual) {
  // 2 tokens/s, burst 3; a fresh bucket is full.
  TokenBucket bucket(2, 3, 0);
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));  // burst exhausted
  // At 2 tokens/s the next token lands exactly half a second out.
  const Picoseconds next = bucket.NextTokenAt(0);
  EXPECT_EQ(next, kPicosecondsPerSecond / 2);
  EXPECT_FALSE(bucket.TryTake(next - 1));
  EXPECT_TRUE(bucket.TryTake(next));
  EXPECT_FALSE(bucket.TryTake(next));
}

TEST(TokenBucketTest, RefundRestoresAndCapacityCaps) {
  TokenBucket bucket(1, 2, 0);
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));
  bucket.Refund();  // the admitted job bounced off the next stage
  EXPECT_TRUE(bucket.TryTake(0));
  EXPECT_FALSE(bucket.TryTake(0));
  // A long idle period accrues at most `burst` tokens.
  const Picoseconds much_later = 100 * kPicosecondsPerSecond;
  EXPECT_TRUE(bucket.TryTake(much_later));
  EXPECT_TRUE(bucket.TryTake(much_later));
  EXPECT_FALSE(bucket.TryTake(much_later));
}

// ----- ring-backed client end to end -----

TEST(VcopServiceTest, RingBackedSubmitAwaitMatchesExactOutput) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "ringed", MakeJob(App::kVecAdd, 1024, 1));
  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());

  VcopdClient client(service, job.tenant);
  const u64 cookie =
      client.SubmitRinged(cp::VecAddBitstream(), {256u}).value();
  const Result<CompletionDescriptor> done = client.Await(cookie);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().cookie, cookie);
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kOk));
  EXPECT_GT(done.value().finished_at, done.value().started_at);
  EXPECT_TRUE(job.Exact());
  EXPECT_EQ(service.stats().drained_jobs, 1u);
  EXPECT_EQ(service.stats().completions_pushed, 1u);
  EXPECT_EQ(daemon.stats().completed, 1u);
}

TEST(VcopServiceTest, ApiContractOnUnattachedAndDoubleAttach) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "contract", MakeJob(App::kVecAdd, 256, 2));

  RingDescriptor d;
  d.cookie = 1;
  EXPECT_EQ(service.Publish(job.tenant, d).code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.Kick(job.tenant).code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.Reap(job.tenant).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.submission_stats(job.tenant), nullptr);

  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());
  EXPECT_EQ(service.AttachTenant(job.tenant).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(service.Reap(job.tenant).status().code(),
            ErrorCode::kFailedPrecondition);  // attached, nothing pending
}

TEST(VcopServiceTest, FullSubmissionRingBackpressuresAtTheEdge) {
  KernelConfig config = TestConfig();
  config.service.ring_entries = 2;
  FpgaSystem sys(config);
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "edge", MakeJob(App::kVecAdd, 256, 3));
  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());

  VcopdClient client(service, job.tenant);
  ASSERT_TRUE(client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  // The first kick's drain is still kDoorbellLatency in the
  // simulated future, so both slots stay occupied right now...
  ASSERT_TRUE(client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  const Result<u64> third =
      client.SubmitRinged(cp::VecAddBitstream(), {64u});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(service.submission_stats(job.tenant)->full_rejections, 1u);

  // ...and a drained ring admits again.
  ASSERT_TRUE(service.RunUntilQuiescent().ok());
  EXPECT_TRUE(client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  ASSERT_TRUE(service.RunUntilQuiescent().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
  EXPECT_TRUE(job.Exact());
}

TEST(VcopServiceTest, DuplicateDoorbellKicksCoalesceAndRunJobsOnce) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "kicks", MakeJob(App::kVecAdd, 512, 4));
  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());

  const u32 design = service.RegisterDesign(cp::VecAddBitstream());
  for (u64 cookie = 1; cookie <= 3; ++cookie) {
    RingDescriptor d;
    d.cookie = cookie;
    d.design = design;
    d.nparams = 1;
    d.params[0] = 128;
    ASSERT_TRUE(service.Publish(job.tenant, d).ok());
  }
  // One doorbell schedules the drain; the next four are coalesced into
  // it — idempotent, no duplicate drains, no duplicate jobs.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Kick(job.tenant).ok());
  }
  EXPECT_EQ(service.stats().doorbell_kicks, 5u);
  EXPECT_EQ(service.stats().doorbells_coalesced, 4u);

  ASSERT_TRUE(service.RunUntilQuiescent().ok());
  EXPECT_EQ(service.stats().drains, 1u);  // one batch drained all three
  EXPECT_EQ(service.stats().drained_jobs, 3u);
  EXPECT_EQ(service.stats().max_batch, 3u);
  EXPECT_EQ(daemon.stats().submitted, 3u);
  EXPECT_EQ(daemon.stats().completed, 3u);
  EXPECT_TRUE(job.Exact());
}

TEST(VcopServiceTest, EmptyTokenBucketDefersDrainUntilAccrual) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "metered", MakeJob(App::kVecAdd, 256, 5));
  // 4 jobs/simulated-second, burst 1: the second and third descriptors
  // must wait out the bucket, not the fabric.
  ASSERT_TRUE(service.AttachTenant(job.tenant, /*admit_rate=*/4,
                                   /*admit_burst=*/1).ok());

  VcopdClient client(service, job.tenant);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  }
  ASSERT_TRUE(service.RunUntilQuiescent().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
  EXPECT_GE(service.stats().admission_deferrals, 2u);
  EXPECT_TRUE(job.Exact());
  // The admission spacing is visible in the completions: ~250 ms apart.
  VcopdClient reaper(service, job.tenant);
  std::vector<Picoseconds> submitted;
  while (service.HasCompletions(job.tenant)) {
    submitted.push_back(service.Reap(job.tenant).value().submitted_at);
  }
  ASSERT_EQ(submitted.size(), 3u);
  EXPECT_GE(submitted[1] - submitted[0], kPicosecondsPerSecond / 4);
  EXPECT_GE(submitted[2] - submitted[1], kPicosecondsPerSecond / 4);
}

// ----- completion-interrupt suppression -----

struct SuppressionRun {
  std::vector<CompletionDescriptor> completions;
  u64 notifies = 0;
  bool recheck = false;
  VcopServiceStats stats;
};

/// Runs the identical 3-job workload with completion interrupts on or
/// off. The submission schedule is the same either way, so delivery
/// must be bit-identical — suppression elides wake-ups, not content.
SuppressionRun RunSuppression(bool suppressed) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "supp", MakeJob(App::kVecAdd, 512, 6));
  VCOP_CHECK(service.AttachTenant(job.tenant).ok());

  SuppressionRun run;
  service.SetCompletionNotifier(job.tenant, [&run] { ++run.notifies; });
  if (suppressed) service.SetInterruptSuppression(job.tenant, true);

  VcopdClient client(service, job.tenant);
  for (int i = 0; i < 3; ++i) {
    VCOP_CHECK(client.SubmitRinged(cp::VecAddBitstream(), {128u}).ok());
  }
  VCOP_CHECK(service.RunUntilQuiescent().ok());
  if (suppressed) {
    run.recheck = service.SetInterruptSuppression(job.tenant, false);
  }
  while (service.HasCompletions(job.tenant)) {
    run.completions.push_back(service.Reap(job.tenant).value());
  }
  VCOP_CHECK(job.Exact());
  run.stats = service.stats();
  return run;
}

TEST(VcopServiceTest, SuppressionElidesWakeupsButDeliveryIsBitIdentical) {
  const SuppressionRun notified = RunSuppression(/*suppressed=*/false);
  const SuppressionRun silent = RunSuppression(/*suppressed=*/true);

  EXPECT_EQ(notified.notifies, 3u);
  EXPECT_EQ(notified.stats.completions_notified, 3u);
  EXPECT_EQ(notified.stats.completions_suppressed, 0u);
  EXPECT_EQ(silent.notifies, 0u);
  EXPECT_EQ(silent.stats.completions_notified, 0u);
  EXPECT_EQ(silent.stats.completions_suppressed, 3u);
  // Completions landed during the window, so lifting suppression must
  // demand a re-poll before the tenant may sleep.
  EXPECT_TRUE(silent.recheck);

  ASSERT_EQ(notified.completions.size(), 3u);
  ASSERT_EQ(silent.completions.size(), 3u);
  for (usize i = 0; i < 3; ++i) {
    const CompletionDescriptor& a = notified.completions[i];
    const CompletionDescriptor& b = silent.completions[i];
    EXPECT_EQ(a.cookie, b.cookie);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.submitted_at, b.submitted_at);
    EXPECT_EQ(a.started_at, b.started_at);
    EXPECT_EQ(a.finished_at, b.finished_at);
  }
}

// ----- quarantine -----

/// A wedged datapath quarantines the tenant (vcopd's existing policy);
/// from then on the service ignores its doorbells outright — published
/// descriptors strand in the ring and never reach the daemon.
TEST(VcopServiceTest, QuarantinedTenantDoorbellsAreIgnored) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  StagedJob job =
      StageTenant(sys, daemon, "wedger", MakeJob(App::kVecAdd, 1024, 7));
  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());

  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // wedge the first datapath access
  sys.kernel().InstallFaultPlan(&plan);

  VcopdClient client(service, job.tenant);
  const u64 cookie =
      client.SubmitRinged(cp::VecAddBitstream(), {256u}).value();
  const Result<CompletionDescriptor> done = client.Await(cookie);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kUnavailable));
  EXPECT_EQ(daemon.stats().quarantined, 1u);

  // The publish still lands in shared memory, but the doorbell is dead.
  ASSERT_TRUE(client.SubmitRinged(cp::VecAddBitstream(), {256u}).ok());
  ASSERT_TRUE(service.Kick(job.tenant).ok());  // and again, directly
  EXPECT_EQ(service.stats().doorbells_ignored, 2u);

  ASSERT_TRUE(service.RunUntilQuiescent().ok());
  EXPECT_EQ(daemon.stats().submitted, 1u);  // the stranded job never ran
  EXPECT_EQ(service.submission_stats(job.tenant)->consumed, 1u);
  sys.kernel().InstallFaultPlan(nullptr);
}

}  // namespace
}  // namespace vcop::os
