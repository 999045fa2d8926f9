// Tests for the ring-transport service layer (os/ring.h, os/service.h):
// split-ring index wrap-around, full-ring backpressure, descriptor
// checksums, the deterministic token bucket, doorbell coalescing,
// completion-interrupt suppression (bit-identical delivery on vs off),
// admission deferral, quarantined-tenant doorbells, all-or-none object
// refs that apply to their own descriptor's job, a ring-descriptor
// fuzz, and VcopdClient end to end.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "base/fault.h"
#include "base/rng.h"
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

/// A ring holds exactly `entries` descriptors at either end of the size
/// range: it fills, refuses the next with ResourceExhausted, drains
/// empty in order, and keeps doing so across the 65536 index wrap.
class RingCapacityTest : public ::testing::TestWithParam<u32> {};

TEST_P(RingCapacityTest, FillsToEntriesAndDrainsAcrossTheIndexWrap) {
  const u32 entries = GetParam();
  SubmissionRing sq(entries);
  CompletionRing cq(entries);
  const u64 rounds = 65536 / entries + 1;  // the last one crosses the wrap
  u64 cookie = 0;
  for (u64 round = 0; round < rounds; ++round) {
    const u64 first = cookie + 1;
    for (u32 i = 0; i < entries; ++i) {
      RingDescriptor d;
      d.cookie = ++cookie;
      ASSERT_TRUE(sq.Publish(d).ok());
      CompletionDescriptor c;
      c.cookie = cookie;
      ASSERT_TRUE(cq.Push(c).ok());
    }
    ASSERT_EQ(sq.size(), entries);
    ASSERT_EQ(cq.size(), entries);
    ASSERT_EQ(sq.Publish(RingDescriptor{}).code(),
              ErrorCode::kResourceExhausted);
    ASSERT_EQ(cq.Push(CompletionDescriptor{}).code(),
              ErrorCode::kResourceExhausted);
    for (u64 want = first; want <= cookie; ++want) {
      ASSERT_EQ(sq.Consume().cookie, want);
      ASSERT_EQ(cq.Reap().cookie, want);
    }
    ASSERT_TRUE(sq.empty());
    ASSERT_TRUE(cq.empty());
  }
  for (const RingStats& stats : {sq.stats(), cq.stats()}) {
    EXPECT_EQ(stats.published, rounds * entries);
    EXPECT_EQ(stats.consumed, rounds * entries);
    EXPECT_EQ(stats.full_rejections, rounds);
    EXPECT_EQ(stats.index_wraps, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingCapacityTest,
                         ::testing::Values(2u, 32768u),
                         ::testing::PrintToStringParamName());

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

/// A vecadd tenant (`bytes` per operand, `seed`) on the ring service of
/// a fresh system, attached with the service's admission defaults
/// unless `attach` is false, its ring client, and a spare buffer the
/// size of its objects for ring refs to name.
struct RingTenant {
  RingTenant(u32 bytes, u64 seed, const KernelConfig& config = TestConfig(),
             bool attach = true)
      : sys(config),
        job(StageTenant(sys, daemon, "ringed",
                        MakeJob(App::kVecAdd, bytes, seed))),
        spare(sys.Allocate<u8>(bytes).value().addr()) {
    if (attach) VCOP_CHECK(service.AttachTenant(job.tenant).ok());
  }

  /// The tenant's object table (its ASID is the first one, 1).
  const ObjectTable& table() { return daemon.FindSpace(1)->objects(); }

  FpgaSystem sys;
  Vcopd daemon{sys.kernel()};
  VcopService service{daemon};
  StagedJob job;
  mem::UserAddr spare;
  VcopdClient client{service, job.tenant};
};

TEST(VcopServiceTest, RingBackedSubmitAwaitMatchesExactOutput) {
  RingTenant t(1024, 1);
  const u64 cookie =
      t.client.SubmitRinged(cp::VecAddBitstream(), {256u}).value();
  const Result<CompletionDescriptor> done = t.client.Await(cookie);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().cookie, cookie);
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kOk));
  EXPECT_GT(done.value().finished_at, done.value().started_at);
  EXPECT_TRUE(t.job.Exact());
  EXPECT_EQ(t.service.stats().drained_jobs, 1u);
  EXPECT_EQ(t.service.stats().completions_pushed, 1u);
  EXPECT_EQ(t.daemon.stats().completed, 1u);
}

TEST(VcopServiceTest, ApiContractOnUnattachedAndDoubleAttach) {
  RingTenant t(256, 2, TestConfig(), /*attach=*/false);
  VcopService& service = t.service;
  const TenantId tenant = t.job.tenant;

  RingDescriptor d;
  d.cookie = 1;
  EXPECT_EQ(service.Publish(tenant, d).code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.Kick(tenant).code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.Reap(tenant).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.submission_stats(tenant), nullptr);

  // Only a tenant the daemon knows gets a port.
  for (const TenantId unknown : {TenantId{0}, tenant + 1, ~TenantId{0}}) {
    EXPECT_EQ(service.AttachTenant(unknown).code(), ErrorCode::kNotFound)
        << "tenant " << unknown;
    EXPECT_EQ(service.submission_stats(unknown), nullptr);
  }

  ASSERT_TRUE(service.AttachTenant(tenant).ok());
  EXPECT_EQ(service.AttachTenant(tenant).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(service.Reap(tenant).status().code(),
            ErrorCode::kFailedPrecondition);  // attached, nothing pending
}

/// The daemon may outlive its service: the service takes back each
/// attached tenant's completion listener as it goes, so the tenant's
/// later direct jobs end with no listener left to call into it.
TEST(VcopServiceTest, TheDaemonOutlivesItsService) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  const StagedJob job =
      StageTenant(sys, daemon, "direct", MakeJob(App::kVecAdd, 256, 11));
  {
    VcopService service(daemon);
    ASSERT_TRUE(service.AttachTenant(job.tenant).ok());
  }
  const Result<JobResult> done = daemon.Wait(job.Submit(daemon).value());
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done.value().status.ok());
  EXPECT_TRUE(job.Exact());
}

TEST(VcopServiceTest, FullSubmissionRingBackpressuresAtTheEdge) {
  KernelConfig config = TestConfig();
  config.service.ring_entries = 2;
  RingTenant t(256, 3, config);
  ASSERT_TRUE(t.client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  // The first kick's drain is still kDoorbellLatency in the
  // simulated future, so both slots stay occupied right now...
  ASSERT_TRUE(t.client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  const Result<u64> third =
      t.client.SubmitRinged(cp::VecAddBitstream(), {64u});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(t.service.submission_stats(t.job.tenant)->full_rejections, 1u);

  // ...and a drained ring admits again.
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_TRUE(t.client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_EQ(t.daemon.stats().completed, 3u);
  EXPECT_TRUE(t.job.Exact());
}

TEST(VcopServiceTest, DuplicateDoorbellKicksCoalesceAndRunJobsOnce) {
  RingTenant t(512, 4);
  const u32 design = t.service.RegisterDesign(cp::VecAddBitstream());
  for (u64 cookie = 1; cookie <= 3; ++cookie) {
    RingDescriptor d;
    d.cookie = cookie;
    d.design = design;
    d.nparams = 1;
    d.params[0] = 128;
    ASSERT_TRUE(t.service.Publish(t.job.tenant, d).ok());
  }
  // One doorbell schedules the drain; the next four are coalesced into
  // it — idempotent, no duplicate drains, no duplicate jobs.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());
  }
  EXPECT_EQ(t.service.stats().doorbell_kicks, 5u);
  EXPECT_EQ(t.service.stats().doorbells_coalesced, 4u);

  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_EQ(t.service.stats().drains, 1u);  // one batch drained all three
  EXPECT_EQ(t.service.stats().drained_jobs, 3u);
  EXPECT_EQ(t.service.stats().max_batch, 3u);
  EXPECT_EQ(t.daemon.stats().submitted, 3u);
  EXPECT_EQ(t.daemon.stats().completed, 3u);
  EXPECT_TRUE(t.job.Exact());
}

TEST(VcopServiceTest, EmptyTokenBucketDefersDrainUntilAccrual) {
  RingTenant t(256, 5, TestConfig(), /*attach=*/false);
  // 4 jobs/simulated-second, burst 1: the second and third descriptors
  // must wait out the bucket, not the fabric.
  ASSERT_TRUE(t.service.AttachTenant(t.job.tenant, /*admit_rate=*/4,
                                     /*admit_burst=*/1).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.client.SubmitRinged(cp::VecAddBitstream(), {64u}).ok());
  }
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_EQ(t.daemon.stats().completed, 3u);
  EXPECT_GE(t.service.stats().admission_deferrals, 2u);
  EXPECT_TRUE(t.job.Exact());
  // The admission spacing is visible in the completions: ~250 ms apart.
  std::vector<Picoseconds> submitted;
  while (t.service.HasCompletions(t.job.tenant)) {
    submitted.push_back(t.service.Reap(t.job.tenant).value().submitted_at);
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
  RingTenant t(512, 6);
  const TenantId tenant = t.job.tenant;
  SuppressionRun run;
  t.service.SetCompletionNotifier(tenant, [&run] { ++run.notifies; });
  if (suppressed) t.service.SetInterruptSuppression(tenant, true);

  for (int i = 0; i < 3; ++i) {
    VCOP_CHECK(t.client.SubmitRinged(cp::VecAddBitstream(), {128u}).ok());
  }
  VCOP_CHECK(t.service.RunUntilQuiescent().ok());
  if (suppressed) {
    run.recheck = t.service.SetInterruptSuppression(tenant, false);
  }
  while (t.service.HasCompletions(tenant)) {
    run.completions.push_back(t.service.Reap(tenant).value());
  }
  VCOP_CHECK(t.job.Exact());
  run.stats = t.service.stats();
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

/// A tenant that stops reaping overflows its completion ring. The
/// service holds the rest in order and drains them back as the tenant
/// reaps, so each completion arrives once, in completion order.
TEST(VcopServiceTest, OverflowedCompletionsDrainBackInOrder) {
  KernelConfig config = TestConfig();
  config.service.ring_entries = 2;
  RingTenant t(256, 9, config);
  std::vector<u64> cookies;
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 2; ++i) {
      cookies.push_back(
          t.client.SubmitRinged(cp::VecAddBitstream(), {64u}).value());
    }
    ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  }
  // Two completions fit the ring; the other four are held.
  EXPECT_EQ(t.service.stats().completions_pushed, 2u);
  for (const u64 cookie : cookies) {
    const Result<CompletionDescriptor> done = t.service.Reap(t.job.tenant);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(done.value().cookie, cookie);
    EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kOk));
  }
  EXPECT_FALSE(t.service.HasCompletions(t.job.tenant));
  EXPECT_EQ(t.service.stats().completions_pushed, 6u);
  EXPECT_TRUE(t.job.Exact());
}

// ----- quarantine -----

/// A wedged datapath quarantines the tenant (vcopd's existing policy);
/// from then on the service ignores its doorbells outright — published
/// descriptors strand in the ring and never reach the daemon.
TEST(VcopServiceTest, QuarantinedTenantDoorbellsAreIgnored) {
  RingTenant t(1024, 7);
  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // wedge the first datapath access
  t.sys.kernel().InstallFaultPlan(&plan);

  const u64 cookie =
      t.client.SubmitRinged(cp::VecAddBitstream(), {256u}).value();
  const Result<CompletionDescriptor> done = t.client.Await(cookie);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kUnavailable));
  EXPECT_EQ(t.daemon.stats().quarantined, 1u);

  // The publish still lands in shared memory, but the doorbell is dead.
  ASSERT_TRUE(t.client.SubmitRinged(cp::VecAddBitstream(), {256u}).ok());
  ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());  // and again, directly
  EXPECT_EQ(t.service.stats().doorbells_ignored, 2u);

  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_EQ(t.daemon.stats().submitted, 1u);  // the stranded job never ran
  EXPECT_EQ(t.service.submission_stats(t.job.tenant)->consumed, 1u);
  t.sys.kernel().InstallFaultPlan(nullptr);
}

// ----- object refs -----

/// A vecadd descriptor whose refs point `objects` at the spare buffer
/// is rejected with `code` and re-points none of them: object 0 keeps
/// its address and the tenant's table its version.
void ExpectRefsRejected(std::initializer_list<u32> objects, ErrorCode code) {
  RingTenant t(1024, 8);
  const mem::UserAddr before = t.table().Find(0)->user_addr;
  const u64 version = t.table().version();
  RingDescriptor d;
  d.design = t.service.RegisterDesign(cp::VecAddBitstream());
  d.nparams = 1;
  d.params[0] = 256;
  for (const u32 object : objects) {
    d.object_refs[d.nrefs++] = u64{object} << 32 | t.spare;
  }
  ASSERT_TRUE(t.service.Publish(t.job.tenant, d).ok());
  ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  EXPECT_EQ(t.service.Reap(t.job.tenant).value().code,
            static_cast<u32>(code));
  EXPECT_EQ(t.table().Find(0)->user_addr, before);
  EXPECT_EQ(t.table().version(), version);
}

TEST(VcopServiceTest, RefPastTheObjectTableIsRejected) {
  // No object 0x100 exists; cut to its low 8 bits it would name 0.
  ExpectRefsRejected({0x100}, ErrorCode::kInvalidArgument);
}

TEST(VcopServiceTest, BadRefLeavesTheValidRefsBeforeItUnapplied) {
  // Object 0 is mapped, object 9 is not.
  ExpectRefsRejected({0, 9}, ErrorCode::kNotFound);
}

/// Publishes a 1 KB vecadd descriptor (`cookie`) whose refs point every
/// object of `staged`'s job (seed `seed`) at a buffer of its own,
/// filled with the job's inputs; staged.out is its output buffer.
void PublishOnOwnBuffers(RingTenant& t, u64 cookie, u64 seed,
                         StagedJob& staged) {
  staged.job = MakeJob(App::kVecAdd, 1024, seed);
  RingDescriptor d;
  d.cookie = cookie;
  d.design = t.service.RegisterDesign(cp::VecAddBitstream());
  d.nparams = 1;
  d.params[0] = 256;
  for (const runtime::JobObject& o : staged.job.objects) {
    runtime::HostBuffer<u8> buffer =
        t.sys.Allocate<u8>(static_cast<u32>(o.bytes.size())).value();
    buffer.Fill(o.bytes);
    d.object_refs[d.nrefs++] = u64{o.id} << 32 | buffer.addr();
    if (o.id == staged.job.output) staged.out = buffer;
  }
  ASSERT_TRUE(t.service.Publish(t.job.tenant, d).ok());
}

/// One kick drains two vecadd descriptors whose refs name different
/// buffers. The second descriptor's refs wait in the ring until the
/// first job is done with the tenant's one object table, so each job
/// runs on its own buffers and completions keep cookie order.
TEST(VcopServiceTest, EachDescriptorsRefsApplyToItsOwnJob) {
  RingTenant t(1024, 9);
  std::vector<StagedJob> staged(2);
  for (u32 i = 0; i < 2; ++i) {
    PublishOnOwnBuffers(t, i + 1, 21 + i, staged[i]);
  }
  ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
  for (u32 i = 0; i < 2; ++i) {
    const CompletionDescriptor done = t.service.Reap(t.job.tenant).value();
    EXPECT_EQ(done.cookie, i + 1);
    EXPECT_EQ(done.code, static_cast<u32>(ErrorCode::kOk));
    EXPECT_TRUE(staged[i].Exact()) << "descriptor " << i + 1;
  }
  EXPECT_GE(t.service.stats().daemon_backpressure, 1u);
}

/// A descriptor with refs backs off behind a job its tenant submitted
/// straight to the daemon, which holds the tenant's object table. The
/// direct job's end reaches the tenant's completion listener too, and
/// that re-drains the ring: the descriptor runs on its own buffers and
/// completes. Re-drained only by a ring job's completion or by the next
/// kick, it stranded with no completion.
TEST(VcopServiceTest, ADescriptorBehindADirectJobRunsWhenThatJobEnds) {
  RingTenant t(1024, 10);
  const Ticket direct = t.job.Submit(t.daemon).value();
  StagedJob ringed;
  PublishOnOwnBuffers(t, /*cookie=*/1, /*seed=*/31, ringed);
  ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());
  ASSERT_TRUE(t.service.RunUntilQuiescent().ok());

  const std::optional<JobResult> direct_done = t.daemon.Poll(direct);
  ASSERT_TRUE(direct_done.has_value());
  EXPECT_TRUE(direct_done->status.ok());
  EXPECT_TRUE(t.job.Exact());
  EXPECT_EQ(t.service.stats().daemon_backpressure, 1u);
  const Result<CompletionDescriptor> done = t.service.Reap(t.job.tenant);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done.value().cookie, 1u);
  EXPECT_EQ(done.value().code, static_cast<u32>(ErrorCode::kOk));
  EXPECT_GE(done.value().started_at, direct_done->finished_at);
  EXPECT_TRUE(ringed.Exact());
  EXPECT_FALSE(t.service.HasCompletions(t.job.tenant));  // none for `direct`
  EXPECT_EQ(t.daemon.stats().completed, 2u);
}

// ----- ring-descriptor fuzz -----

/// Ring descriptors are untrusted input. 1000 seeded ones, with random
/// design ids, parameter and ref counts, parameters and refs (object
/// fields past the table, addresses outside user memory), a tenth of
/// them damaged in the ring after sealing: each gets exactly one
/// completion, OK or a clean error, the service reaches quiescence
/// every time, a rejected descriptor leaves the table untouched, and a
/// run passed no parameters fails OUT_OF_RANGE.
TEST(RingFuzzTest, RandomDescriptorsCompleteCleanly) {
  FaultPlan plan;
  plan.WithProbability(FaultSite::kDescriptorCorrupt, 0.1);
  RingTenant t(1024, 8);
  t.sys.kernel().InstallFaultPlan(&plan);
  const u32 design = t.service.RegisterDesign(cp::VecAddBitstream());
  Rng rng(bench::kWorkloadSeed);
  u32 completed = 0, failed = 0, rejected = 0, unparameterised = 0;
  for (u64 cookie = 1; cookie <= 1000; ++cookie) {
    SCOPED_TRACE(StrFormat("descriptor %u", static_cast<u32>(cookie)));
    RingDescriptor d;
    d.cookie = cookie;
    d.design = rng.NextBool(0.8) ? design : static_cast<u32>(rng.Next());
    d.nparams = static_cast<u32>(rng.NextBelow(kRingMaxParams + 2));
    for (u32& param : d.params) {
      param = static_cast<u32>(rng.NextBool() ? rng.NextBelow(300)
                                              : rng.Next());
    }
    d.nrefs = static_cast<u32>(rng.NextBelow(kRingMaxObjectRefs + 2));
    for (u64& ref : d.object_refs) {
      // Mostly one of vecadd's objects (0-2) at the spare buffer, else
      // an unmapped id, an id past the table or any 32-bit address.
      const u64 object = rng.NextBool(0.85) ? rng.NextBelow(3)
                         : rng.NextBool()   ? rng.NextBelow(hw::kMaxObjects)
                                            : rng.Next() >> 32;
      ref = object << 32 | (rng.NextBool(0.85) ? t.spare : rng.Next() >> 32);
    }
    const u64 version = t.table().version();
    const u64 rejections = t.service.stats().descriptors_rejected;
    ASSERT_TRUE(t.service.Publish(t.job.tenant, d).ok());
    ASSERT_TRUE(t.service.Kick(t.job.tenant).ok());
    ASSERT_TRUE(t.service.RunUntilQuiescent().ok());
    const Result<CompletionDescriptor> done = t.service.Reap(t.job.tenant);
    ASSERT_TRUE(done.ok() && done.value().cookie == cookie);
    ASSERT_FALSE(t.service.HasCompletions(t.job.tenant));
    const ErrorCode code = static_cast<ErrorCode>(done.value().code);
    EXPECT_TRUE(code == ErrorCode::kOk ||
                code == ErrorCode::kInvalidArgument ||
                code == ErrorCode::kNotFound ||
                code == ErrorCode::kOutOfRange)
        << static_cast<u32>(code);
    if (t.service.stats().descriptors_rejected != rejections) {
      ++rejected;
      EXPECT_EQ(t.table().version(), version);
    } else {
      // vecadd reads its one parameter first.
      if (d.nparams == 0) {
        EXPECT_EQ(code, ErrorCode::kOutOfRange);
        ++unparameterised;
      }
      ++(code == ErrorCode::kOk ? completed : failed);
    }
  }
  // Every path was taken: jobs that completed, jobs the VIM failed (some
  // passed no parameters), and descriptors rejected in the ring.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(unparameterised, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(t.daemon.stats().quarantined, 0u);
  t.sys.kernel().InstallFaultPlan(nullptr);
}

}  // namespace
}  // namespace vcop::os
