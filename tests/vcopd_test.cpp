// Tests for the vcopd service daemon: asynchronous submission,
// admission control, preemptive context switching (dirty pages pending
// at the fault boundary, TLB restore after intervening eviction, a conv
// job resuming mid-row on its register window),
// ASID allocation/wrap, tenant teardown, the tagged-vs-untagged TLB
// switch policies, and the FIFO policy's batching by bit-stream.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "base/fault.h"
#include "cp/adpcm_cp.h"
#include "cp/conv_cp.h"
#include "cp/gather_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "os/address_space.h"
#include "os/vcopd.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop::os {
namespace {

using runtime::FpgaSystem;
using runtime::HostBuffer;
using runtime::VcopdClient;

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

// ----- staging helpers -----

struct VecAddJob {
  TenantId tenant = 0;
  HostBuffer<u32> a, b, c;
  std::vector<u32> expect;
};

VecAddJob StageVecAdd(FpgaSystem& sys, Vcopd& daemon, const char* name,
                      u32 n, u32 seed, u32 weight = 1) {
  VecAddJob job;
  job.tenant = daemon.RegisterTenant(name, weight).value();
  job.a = sys.Allocate<u32>(n).value();
  job.b = sys.Allocate<u32>(n).value();
  job.c = sys.Allocate<u32>(n).value();
  std::vector<u32> a(n), b(n);
  for (u32 i = 0; i < n; ++i) {
    a[i] = seed * 1000003u + i;
    b[i] = seed * 7919u + 3u * i;
  }
  job.a.Fill(a);
  job.b.Fill(b);
  job.expect.resize(n);
  for (u32 i = 0; i < n; ++i) job.expect[i] = a[i] + b[i];
  VcopdClient client(daemon, job.tenant);
  VCOP_CHECK(client.Map(cp::VecAddCoprocessor::kObjA, job.a,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::VecAddCoprocessor::kObjB, job.b,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::VecAddCoprocessor::kObjC, job.c,
                        Direction::kOut).ok());
  return job;
}

struct GatherJob {
  TenantId tenant = 0;
  HostBuffer<u32> in, out, perm;
  std::vector<u32> expect;
};

/// A gather tenant reversing `n` elements: out[i] = in[perm[i]].
GatherJob StageGather(FpgaSystem& sys, Vcopd& daemon, const char* name,
                      u32 n) {
  GatherJob job;
  job.tenant = daemon.RegisterTenant(name).value();
  job.in = sys.Allocate<u32>(n).value();
  job.out = sys.Allocate<u32>(n).value();
  job.perm = sys.Allocate<u32>(n).value();
  std::vector<u32> in(n), perm(n);
  for (u32 i = 0; i < n; ++i) {
    in[i] = i * 5;
    perm[i] = n - 1 - i;
  }
  for (const u32 index : perm) job.expect.push_back(in[index]);
  job.in.Fill(in);
  job.perm.Fill(perm);
  VcopdClient client(daemon, job.tenant);
  VCOP_CHECK(client.Map(cp::GatherCoprocessor::kObjIn, job.in,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::GatherCoprocessor::kObjOut, job.out,
                        Direction::kOut).ok());
  VCOP_CHECK(client.Map(cp::GatherCoprocessor::kObjPerm, job.perm,
                        Direction::kIn).ok());
  return job;
}

struct AdpcmJob {
  TenantId tenant = 0;
  HostBuffer<u8> in;
  HostBuffer<i16> out;
  std::vector<i16> expect;
  u32 input_bytes = 0;
};

AdpcmJob StageAdpcm(FpgaSystem& sys, Vcopd& daemon, const char* name,
                    u32 bytes, u32 seed, u32 weight = 1) {
  AdpcmJob job;
  job.tenant = daemon.RegisterTenant(name, weight).value();
  job.input_bytes = bytes;
  std::vector<u8> input(bytes);
  for (u32 i = 0; i < bytes; ++i) {
    input[i] = static_cast<u8>((seed * 2654435761u + i * 97u) >> 13);
  }
  job.in = sys.Allocate<u8>(bytes).value();
  job.in.Fill(input);
  job.out = sys.Allocate<i16>(bytes * 2).value();
  job.expect.resize(bytes * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, job.expect, state);
  VcopdClient client(daemon, job.tenant);
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjIn, job.in,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjOut, job.out,
                        Direction::kOut).ok());
  return job;
}

struct ConvJob {
  TenantId tenant = 0;
  HostBuffer<u8> src, dst;
  HostBuffer<u32> coeffs;
  std::vector<u8> expect;
};

/// A conv3x3 tenant sharpening a `width` x `height` test image.
ConvJob StageConv(FpgaSystem& sys, Vcopd& daemon, const char* name,
                  u32 width, u32 height, u64 seed) {
  ConvJob job;
  job.tenant = daemon.RegisterTenant(name).value();
  const std::vector<u8> image = apps::MakeTestImage(width, height, seed);
  const apps::Conv3x3Kernel kernel = apps::SharpenKernel();
  job.expect.resize(image.size());
  apps::Convolve3x3(image, width, height, kernel, 0, job.expect);
  job.src = sys.Allocate<u8>(static_cast<u32>(image.size())).value();
  job.src.Fill(image);
  job.dst = sys.Allocate<u8>(static_cast<u32>(image.size())).value();
  job.coeffs = sys.Allocate<u32>(9).value();
  auto view = job.coeffs.view();
  for (usize i = 0; i < 9; ++i) view[i] = static_cast<u32>(kernel[i]);
  VcopdClient client(daemon, job.tenant);
  VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjSrc, job.src,
                        Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjDst, job.dst,
                        Direction::kOut).ok());
  VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjKernel, job.coeffs,
                        Direction::kIn).ok());
  return job;
}

// ----- asynchronous lifecycle -----

TEST(VcopdTest, SubmitPollWaitRoundTrip) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VecAddJob job = StageVecAdd(sys, daemon, "solo", 512, 1);
  VcopdClient client(daemon, job.tenant);

  const Ticket ticket =
      client.Submit(cp::VecAddBitstream(), {512u}).value();
  EXPECT_EQ(daemon.Poll(ticket), nullptr);  // queued, nothing ran yet
  EXPECT_EQ(daemon.stats().submitted, 1u);

  const Result<JobResult> result = client.Wait(ticket);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().status.ok());
  EXPECT_EQ(job.c.ToVector(), job.expect);

  const JobResult* polled = daemon.Poll(ticket);
  ASSERT_NE(polled, nullptr);
  EXPECT_EQ(polled->ticket, ticket);
  EXPECT_GT(polled->finished_at, polled->started_at);
  EXPECT_EQ(daemon.stats().completed, 1u);
  EXPECT_EQ(polled->preemptions, 0u);  // nobody to preempt for
}

TEST(VcopdTest, CompletionCallbackFiresAtCompletionInstant) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VecAddJob job = StageVecAdd(sys, daemon, "cb", 256, 2);
  VcopdClient client(daemon, job.tenant);

  Picoseconds callback_at = 0;
  std::vector<u32> snapshot;
  const Ticket ticket =
      client
          .Submit(cp::VecAddBitstream(), {256u},
                  [&](const JobResult& r) {
                    callback_at = r.finished_at;
                    // The payload must already be in user memory when
                    // the completion event fires.
                    snapshot = job.c.ToVector();
                  })
          .value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const JobResult* result = daemon.Poll(ticket);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(callback_at, result->finished_at);
  EXPECT_EQ(snapshot, job.expect);
}

TEST(VcopdTest, BoundedQueueRejectsWithBackpressure) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.queue_depth = 2;
  Vcopd daemon(sys.kernel(), config);
  VecAddJob job = StageVecAdd(sys, daemon, "burst", 64, 3);
  VcopdClient client(daemon, job.tenant);

  ASSERT_TRUE(client.Submit(cp::VecAddBitstream(), {64u}).ok());
  ASSERT_TRUE(client.Submit(cp::VecAddBitstream(), {64u}).ok());
  const Result<Ticket> third = client.Submit(cp::VecAddBitstream(), {64u});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(daemon.stats().rejected, 1u);

  // Draining the queue restores admission.
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_TRUE(client.Submit(cp::VecAddBitstream(), {64u}).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
}

// ----- preemptive context switching -----

/// Two ADPCM tenants big enough to fault repeatedly, with a time slice
/// far below their runtime: forces preemptions with dirty output pages
/// pending at the fault boundary, TLB snapshots restored after the
/// other tenant evicted entries, and parameter-page re-materialisation.
struct PreemptionRun {
  u64 preemptions = 0;
  VimServiceStats service;
  bool correct = false;
};

PreemptionRun RunContendedAdpcm(bool asid_tagging) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;  // 50 us: well below runtime
  config.quantum = 100ull * 1000 * 1000;
  config.asid_tagging = asid_tagging;
  Vcopd daemon(sys.kernel(), config);
  sys.kernel().vim().ResetServiceStats();

  AdpcmJob first = StageAdpcm(sys, daemon, "alpha", 12 * 1024, 1);
  AdpcmJob second = StageAdpcm(sys, daemon, "beta", 12 * 1024, 2);
  VcopdClient c1(daemon, first.tenant);
  VcopdClient c2(daemon, second.tenant);
  const Ticket t1 =
      c1.Submit(cp::AdpcmDecodeBitstream(),
                {first.input_bytes, 0u, 0u}).value();
  const Ticket t2 =
      c2.Submit(cp::AdpcmDecodeBitstream(),
                {second.input_bytes, 0u, 0u}).value();
  VCOP_CHECK(daemon.RunUntilIdle().ok());

  PreemptionRun run;
  run.preemptions = daemon.stats().preemptions;
  run.service = sys.kernel().vim().service_stats();
  run.correct = daemon.Poll(t1)->status.ok() &&
                daemon.Poll(t2)->status.ok() &&
                first.out.ToVector() == first.expect &&
                second.out.ToVector() == second.expect;
  return run;
}

TEST(VcopdTest, PreemptionWithDirtyPagesKeepsResultsExact) {
  const PreemptionRun run = RunContendedAdpcm(/*asid_tagging=*/true);
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
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.policy = ServicePolicy::kFairShare;
  config.time_slice = 50ull * 1000 * 1000;  // 50 us: well below runtime
  config.quantum = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);

  ConvJob first = StageConv(sys, daemon, "alpha", 4096, 6, 1);
  ConvJob second = StageConv(sys, daemon, "beta", 4096, 6, 2);
  VcopdClient c1(daemon, first.tenant);
  VcopdClient c2(daemon, second.tenant);
  const Ticket t1 =
      c1.Submit(cp::Conv3x3Bitstream(), {4096u, 6u, 0u}).value();
  const Ticket t2 =
      c2.Submit(cp::Conv3x3Bitstream(), {4096u, 6u, 0u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_GT(daemon.stats().preemptions, 0u);
  EXPECT_TRUE(daemon.Poll(t1)->status.ok());
  EXPECT_TRUE(daemon.Poll(t2)->status.ok());
  EXPECT_EQ(first.dst.ToVector(), first.expect);
  EXPECT_EQ(second.dst.ToVector(), second.expect);
}

TEST(VcopdTest, TaggedTlbAvoidsFullFlushesAndRestoresEntries) {
  const PreemptionRun tagged = RunContendedAdpcm(/*asid_tagging=*/true);
  ASSERT_TRUE(tagged.correct);
  EXPECT_GT(tagged.service.tlb_flushes_avoided, 0u);
  EXPECT_EQ(tagged.service.full_tlb_flushes, 0u);
  // The 8-entry CAM is contended by two streaming tenants, so some
  // snapshot entries must have survived (or been re-installed).
  EXPECT_GT(tagged.service.tlb_entries_restored +
                tagged.service.tlb_flushes_avoided,
            0u);
}

TEST(VcopdTest, UntaggedBaselineFlushesOnEverySwitch) {
  const PreemptionRun untagged = RunContendedAdpcm(/*asid_tagging=*/false);
  ASSERT_TRUE(untagged.correct);  // policy changes timing, never bytes
  EXPECT_GT(untagged.service.full_tlb_flushes, 0u);
  EXPECT_EQ(untagged.service.tlb_flushes_avoided, 0u);
  EXPECT_EQ(untagged.service.tlb_entries_restored, 0u);
}

TEST(VcopdTest, OverlappedPrefetchFramesBelongToTheTenant) {
  // A speculative frame is filed under the tenant that issued it, so
  // its end-of-operation sweep releases it and a later eviction finds
  // its owner.
  KernelConfig kc = TestConfig();
  kc.vim.prefetch = PrefetchKind::kSequential;
  kc.vim.overlap_prefetch = true;
  FpgaSystem sys(kc);
  Vcopd daemon(sys.kernel());

  AdpcmJob first = StageAdpcm(sys, daemon, "alpha", 8 * 1024, 1);
  AdpcmJob second = StageAdpcm(sys, daemon, "beta", 8 * 1024, 2);
  VcopdClient c1(daemon, first.tenant);
  VcopdClient c2(daemon, second.tenant);
  const Ticket t1 =
      c1.Submit(cp::AdpcmDecodeBitstream(),
                {first.input_bytes, 0u, 0u}).value();
  const Ticket t2 =
      c2.Submit(cp::AdpcmDecodeBitstream(),
                {second.input_bytes, 0u, 0u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_TRUE(daemon.Poll(t1)->status.ok());
  EXPECT_TRUE(daemon.Poll(t2)->status.ok());
  EXPECT_EQ(first.out.ToVector(), first.expect);
  EXPECT_EQ(second.out.ToVector(), second.expect);
  EXPECT_GT(daemon.stats().preemptions, 0u);
  EXPECT_TRUE(sys.kernel().vim().page_manager().InUseFrames().empty());
}

// ----- mixed multi-tenant correctness -----

TEST(VcopdTest, MixedTenantsMatchSoloByteForByte) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.time_slice = 100ull * 1000 * 1000;
  Vcopd daemon(sys.kernel(), config);

  AdpcmJob adpcm = StageAdpcm(sys, daemon, "adpcm", 8 * 1024, 7);
  VecAddJob vecadd = StageVecAdd(sys, daemon, "vecadd", 2048, 8);

  // IDEA tenant staged by hand (in/out are byte buffers the core
  // addresses as 32-bit elements).
  const TenantId idea_tenant = daemon.RegisterTenant("idea").value();
  const u32 idea_bytes = 4 * 1024;
  std::vector<u8> plain(idea_bytes);
  for (u32 i = 0; i < idea_bytes; ++i) {
    plain[i] = static_cast<u8>(i * 131u + 17u);
  }
  apps::IdeaKey key{};
  std::iota(key.begin(), key.end(), u8{1});
  const apps::IdeaSubkeys subkeys = apps::IdeaExpandKey(key);
  std::vector<u8> expect_cipher(idea_bytes);
  apps::IdeaCryptEcb(subkeys, plain, expect_cipher);

  HostBuffer<u8> idea_in = sys.Allocate<u8>(idea_bytes).value();
  idea_in.Fill(plain);
  HostBuffer<u8> idea_out = sys.Allocate<u8>(idea_bytes).value();
  HostBuffer<u16> idea_key =
      sys.Allocate<u16>(static_cast<u32>(subkeys.size())).value();
  idea_key.Fill(std::span<const u16>(subkeys.data(), subkeys.size()));
  VcopdClient idea_client(daemon, idea_tenant);
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjIn, idea_in,
                              /*elem_width=*/4, Direction::kIn).ok());
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjOut, idea_out,
                              /*elem_width=*/4, Direction::kOut).ok());
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjKey, idea_key,
                              Direction::kIn).ok());

  VcopdClient adpcm_client(daemon, adpcm.tenant);
  VcopdClient vecadd_client(daemon, vecadd.tenant);
  ASSERT_TRUE(adpcm_client.Submit(cp::AdpcmDecodeBitstream(),
                                  {adpcm.input_bytes, 0u, 0u}).ok());
  ASSERT_TRUE(idea_client
                  .Submit(cp::IdeaBitstream(),
                          {idea_bytes / 8, cp::IdeaCoprocessor::kModeEcb,
                           0u, 0u})
                  .ok());
  ASSERT_TRUE(vecadd_client.Submit(cp::VecAddBitstream(), {2048u}).ok());

  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 3u);
  EXPECT_EQ(daemon.stats().failed, 0u);
  EXPECT_EQ(adpcm.out.ToVector(), adpcm.expect);
  EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);
  EXPECT_EQ(idea_out.ToVector(), expect_cipher);
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
  VecAddJob job = StageVecAdd(sys, daemon, "transient", 128, 4);
  VcopdClient client(daemon, job.tenant);

  const Ticket ticket =
      client.Submit(cp::VecAddBitstream(), {128u}).value();
  // Work in flight: teardown must be refused.
  const Status busy = daemon.UnregisterTenant(job.tenant);
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), ErrorCode::kFailedPrecondition);

  ASSERT_TRUE(client.Wait(ticket).ok());
  ASSERT_TRUE(daemon.UnregisterTenant(job.tenant).ok());
  // Gone: further calls fail, and the ASID tag is recyclable.
  EXPECT_EQ(daemon.UnregisterTenant(job.tenant).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client.Submit(cp::VecAddBitstream(), {128u}).status().code(),
            ErrorCode::kNotFound);
  const TenantId reborn = daemon.RegisterTenant("reborn").value();
  EXPECT_NE(reborn, job.tenant);
}

TEST(VcopdTest, AsidReuseAfterTeardownIsClean) {
  FpgaSystem sys(TestConfig());
  VcopdConfig config;
  config.max_asids = 3;  // tags {0,1,2}: two usable tenants
  Vcopd daemon(sys.kernel(), config);

  VecAddJob first = StageVecAdd(sys, daemon, "first", 256, 5);
  VcopdClient c1(daemon, first.tenant);
  ASSERT_TRUE(c1.Wait(c1.Submit(cp::VecAddBitstream(), {256u}).value())
                  .ok());
  ASSERT_TRUE(daemon.RegisterTenant("second").ok());
  // Tag space full until the first tenant is torn down.
  ASSERT_FALSE(daemon.RegisterTenant("third").ok());
  ASSERT_TRUE(daemon.UnregisterTenant(first.tenant).ok());

  // The recycled tag must start with a clean slate: a new tenant under
  // the reused ASID computes correct results from its own pages.
  VecAddJob reuse = StageVecAdd(sys, daemon, "reuse", 256, 6);
  VcopdClient c3(daemon, reuse.tenant);
  ASSERT_TRUE(c3.Wait(c3.Submit(cp::VecAddBitstream(), {256u}).value())
                  .ok());
  EXPECT_EQ(reuse.c.ToVector(), reuse.expect);
}

// ----- error paths and fault recovery -----

TEST(VcopdTest, UnknownTicketPollsNullAndWaitFailsCleanly) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  EXPECT_EQ(daemon.Poll(1), nullptr);
  const Result<JobResult> wait = daemon.Wait(999);
  ASSERT_FALSE(wait.ok());
  EXPECT_EQ(wait.status().code(), ErrorCode::kNotFound);

  // A retired ticket stays pollable; its neighbour never exists.
  VecAddJob job = StageVecAdd(sys, daemon, "known", 64, 10);
  VcopdClient client(daemon, job.tenant);
  const Ticket ticket = client.Submit(cp::VecAddBitstream(), {64u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_NE(daemon.Poll(ticket), nullptr);
  EXPECT_EQ(daemon.Poll(ticket + 1), nullptr);
}

/// A wedged datapath (injected kCpHang on the victim's first access) is
/// aborted by the VIM watchdog; vcopd quarantines the offending tenant,
/// keeps serving the others, and refuses further submissions from the
/// quarantined one instead of letting it wedge the fabric again.
TEST(VcopdTest, HangAbortQuarantinesTenantAndSparesOthers) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel());
  VecAddJob victim = StageVecAdd(sys, daemon, "victim", 256, 11);
  VecAddJob bystander = StageVecAdd(sys, daemon, "bystander", 256, 12);
  VcopdClient cv(daemon, victim.tenant);
  VcopdClient cb(daemon, bystander.tenant);

  FaultPlan plan;
  plan.At(FaultSite::kCpHang, 1);  // wedge the first datapath access
  sys.kernel().InstallFaultPlan(&plan);

  const Ticket tv = cv.Submit(cp::VecAddBitstream(), {256u}).value();
  const Ticket tb = cb.Submit(cp::VecAddBitstream(), {256u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const JobResult* rv = daemon.Poll(tv);
  ASSERT_NE(rv, nullptr);
  ASSERT_FALSE(rv->status.ok());
  EXPECT_EQ(rv->status.code(), ErrorCode::kUnavailable)
      << rv->status.ToString();
  EXPECT_EQ(daemon.stats().quarantined, 1u);
  EXPECT_GE(sys.kernel().vim().service_stats().watchdog_hang_aborts, 1u);

  // The bystander completed exactly despite sharing the fabric.
  const JobResult* rb = daemon.Poll(tb);
  ASSERT_NE(rb, nullptr);
  EXPECT_TRUE(rb->status.ok()) << rb->status.ToString();
  EXPECT_EQ(bystander.c.ToVector(), bystander.expect);

  // Submissions from the quarantined tenant are refused from now on.
  const Result<Ticket> refused = cv.Submit(cp::VecAddBitstream(), {256u});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(daemon.stats().quarantined, 1u);

  // The healthy tenant keeps full service after the abort.
  const Ticket tb2 = cb.Submit(cp::VecAddBitstream(), {256u}).value();
  ASSERT_TRUE(cb.Wait(tb2).ok());
  EXPECT_EQ(bystander.c.ToVector(), bystander.expect);
}

// ----- coexistence with the blocking kernel path -----

TEST(VcopdTest, KernelBlockingPathStillWorksAfterDaemonIdles) {
  FpgaSystem sys(TestConfig());
  {
    Vcopd daemon(sys.kernel());
    VecAddJob job = StageVecAdd(sys, daemon, "tenant", 256, 9);
    VcopdClient client(daemon, job.tenant);
    ASSERT_TRUE(
        client.Wait(client.Submit(cp::VecAddBitstream(), {256u}).value())
            .ok());
    EXPECT_EQ(job.c.ToVector(), job.expect);
  }  // daemon restores the kernel binding on destruction

  // The classic exclusive blocking path on the very same kernel.
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  HostBuffer<u32> a = sys.Allocate<u32>(128).value();
  HostBuffer<u32> b = sys.Allocate<u32>(128).value();
  HostBuffer<u32> c = sys.Allocate<u32>(128).value();
  std::vector<u32> va(128, 3), vb(128, 4);
  a.Fill(va);
  b.Fill(vb);
  ASSERT_TRUE(sys.Map(cp::VecAddCoprocessor::kObjA, a,
                      Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(cp::VecAddCoprocessor::kObjB, b,
                      Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(cp::VecAddCoprocessor::kObjC, c,
                      Direction::kOut).ok());
  const Result<ExecutionReport> report = sys.Execute({128u});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(c.ToVector(), std::vector<u32>(128, 7));
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
    VecAddJob job = StageVecAdd(sys, daemon, name, kN, seed);
    VcopdClient client(daemon, job.tenant);
    const Result<JobResult> r =
        client.Wait(client.Submit(cp::VecAddBitstream(), {kN}).value());
    EXPECT_TRUE(r.ok() && r.value().status.ok());
    EXPECT_EQ(job.c.ToVector(), job.expect);
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
  std::vector<VecAddJob> jobs;
  for (const char* name : {"first", "second", "third"}) {
    jobs.push_back(StageVecAdd(sys, daemon, name, 256,
                               40 + static_cast<u32>(jobs.size())));
  }
  std::vector<Ticket> tickets;
  for (const VecAddJob& job : jobs) {
    VcopdClient client(daemon, job.tenant);
    tickets.push_back(client.Submit(cp::VecAddBitstream(), {256u}).value());
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().reconfigurations, 1u);
  for (usize i = 0; i < jobs.size(); ++i) {
    const JobResult* r = daemon.Poll(tickets[i]);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->status.ok()) << r->status.ToString();
    EXPECT_LT(r->started_at, r->finished_at);
    if (i > 0) {
      EXPECT_GE(r->started_at, daemon.Poll(tickets[i - 1])->finished_at);
    }
    EXPECT_EQ(jobs[i].c.ToVector(), jobs[i].expect);
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
  std::vector<VecAddJob> vecadds;
  std::vector<GatherJob> gathers;
  for (u32 i = 0; i < 3; ++i) {
    vecadds.push_back(StageVecAdd(sys, daemon, "vecadd", 128, 50 + i));
    gathers.push_back(StageGather(sys, daemon, "gather", 128));
  }
  std::vector<Ticket> vecadd_tickets, gather_tickets;
  for (u32 i = 0; i < 3; ++i) {
    VcopdClient cv(daemon, vecadds[i].tenant);
    VcopdClient cg(daemon, gathers[i].tenant);
    vecadd_tickets.push_back(cv.Submit(cp::VecAddBitstream(), {128u}).value());
    gather_tickets.push_back(cg.Submit(cp::GatherBitstream(), {128u}).value());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, 6u);
  for (const VecAddJob& job : vecadds) {
    EXPECT_EQ(job.c.ToVector(), job.expect);
  }
  for (const GatherJob& job : gathers) {
    EXPECT_EQ(job.out.ToVector(), job.expect);
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
  VecAddJob mapped = StageVecAdd(sys, daemon, "mapped", 256, 60);
  VcopdClient cu(daemon, unmapped);
  VcopdClient cm(daemon, mapped.tenant);
  const Ticket broken = cu.Submit(cp::VecAddBitstream(), {8u}).value();
  const Ticket healthy = cm.Submit(cp::VecAddBitstream(), {256u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  ASSERT_NE(daemon.Poll(broken), nullptr);
  EXPECT_FALSE(daemon.Poll(broken)->status.ok());
  ASSERT_NE(daemon.Poll(healthy), nullptr);
  EXPECT_TRUE(daemon.Poll(healthy)->status.ok())
      << daemon.Poll(healthy)->status.ToString();
  EXPECT_EQ(mapped.c.ToVector(), mapped.expect);
}

/// A design larger than the PLD is refused at Submit, before it can
/// queue; the tenant's other jobs still complete.
TEST(VcopdFifoTest, OversizedDesignRejectedAtSubmit) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  VecAddJob job = StageVecAdd(sys, daemon, "tenant", 256, 61);
  VcopdClient client(daemon, job.tenant);
  hw::Bitstream oversized = cp::VecAddBitstream();
  oversized.logic_elements = sys.kernel().config().pld_capacity_les + 1;

  const Ticket before = client.Submit(cp::VecAddBitstream(), {256u}).value();
  const Result<Ticket> rejected = client.Submit(oversized, {256u});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kResourceExhausted);
  const Ticket after = client.Submit(cp::VecAddBitstream(), {256u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().submitted, 2u);
  EXPECT_EQ(daemon.stats().completed, 2u);
  EXPECT_TRUE(daemon.Poll(before)->status.ok());
  EXPECT_TRUE(daemon.Poll(after)->status.ok());
  EXPECT_EQ(job.c.ToVector(), job.expect);
}

/// Of two queued jobs the second waits for the first: it starts after
/// its submission and its turnaround is the longer one.
TEST(VcopdFifoTest, TurnaroundAccountsWaiting) {
  FpgaSystem sys(TestConfig());
  Vcopd daemon(sys.kernel(), FifoConfig());
  VecAddJob first = StageVecAdd(sys, daemon, "first", 2048, 62);
  VecAddJob second = StageVecAdd(sys, daemon, "second", 2048, 63);
  VcopdClient c1(daemon, first.tenant);
  VcopdClient c2(daemon, second.tenant);
  const Ticket t1 = c1.Submit(cp::VecAddBitstream(), {2048u}).value();
  const Ticket t2 = c2.Submit(cp::VecAddBitstream(), {2048u}).value();
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const JobResult* r1 = daemon.Poll(t1);
  const JobResult* r2 = daemon.Poll(t2);
  ASSERT_NE(r1, nullptr);
  ASSERT_NE(r2, nullptr);
  ASSERT_TRUE(r1->status.ok());
  ASSERT_TRUE(r2->status.ok());
  EXPECT_GT(r2->wait(), 0u);
  EXPECT_GT(r2->turnaround(), r1->turnaround());
  EXPECT_EQ(first.c.ToVector(), first.expect);
  EXPECT_EQ(second.c.ToVector(), second.expect);
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

  AdpcmJob adpcm = StageAdpcm(sys, daemon, "adpcm", 2 * 1024, 21);
  VecAddJob vecadd = StageVecAdd(sys, daemon, "vecadd", 512, 22);
  VcopdClient ca(daemon, adpcm.tenant);
  VcopdClient cv(daemon, vecadd.tenant);
  // Two designs alternating over three rounds: a, v, a, v, a, v.
  for (u32 round = 0; round < 3; ++round) {
    ASSERT_TRUE(ca.Submit(cp::AdpcmDecodeBitstream(),
                          {adpcm.input_bytes, 0u, 0u}).ok());
    ASSERT_TRUE(cv.Submit(cp::VecAddBitstream(), {512u}).ok());
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_EQ(daemon.stats().completed, 6u);
  EXPECT_EQ(adpcm.out.ToVector(), adpcm.expect);
  EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);
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

  AdpcmJob first = StageAdpcm(sys, daemon, "alpha", 12 * 1024, 24);
  AdpcmJob second = StageAdpcm(sys, daemon, "beta", 12 * 1024, 25);
  VecAddJob vecadd = StageVecAdd(sys, daemon, "gamma", 2048, 26);
  VcopdClient c1(daemon, first.tenant);
  VcopdClient c2(daemon, second.tenant);
  VcopdClient c3(daemon, vecadd.tenant);
  const Ticket t1 = c1.Submit(cp::AdpcmDecodeBitstream(),
                              {first.input_bytes, 0u, 0u}).value();
  ASSERT_TRUE(c2.Submit(cp::AdpcmDecodeBitstream(),
                        {second.input_bytes, 0u, 0u}).ok());
  ASSERT_TRUE(c3.Submit(cp::VecAddBitstream(), {2048u}).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  EXPECT_GT(daemon.stats().preemptions, 0u);
  const JobResult* r1 = daemon.Poll(t1);
  ASSERT_NE(r1, nullptr);
  ASSERT_TRUE(r1->status.ok());
  EXPECT_GT(r1->preemptions, 0u);
  // Both designs fit the 3-slot cache, so resumed slices re-activate
  // instead of reconfiguring: the job paid exactly one configuration.
  EXPECT_EQ(r1->reconfigurations, 1u);
  EXPECT_EQ(first.out.ToVector(), first.expect);
  EXPECT_EQ(second.out.ToVector(), second.expect);
  EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);
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
  AdpcmJob alpha = StageAdpcm(sys, daemon, "alpha", 12 * 1024, 27);
  VecAddJob vecadd = StageVecAdd(sys, daemon, "vec", 2048, 28);
  const TenantId idea_tenant = daemon.RegisterTenant("idea").value();
  const u32 idea_bytes = 8 * 1024;
  std::vector<u8> plain(idea_bytes);
  for (u32 i = 0; i < idea_bytes; ++i) {
    plain[i] = static_cast<u8>(i * 131u + 17u);
  }
  apps::IdeaKey key{};
  std::iota(key.begin(), key.end(), u8{1});
  const apps::IdeaSubkeys subkeys = apps::IdeaExpandKey(key);
  std::vector<u8> expect_cipher(idea_bytes);
  apps::IdeaCryptEcb(subkeys, plain, expect_cipher);
  HostBuffer<u8> idea_in = sys.Allocate<u8>(idea_bytes).value();
  idea_in.Fill(plain);
  HostBuffer<u8> idea_out = sys.Allocate<u8>(idea_bytes).value();
  HostBuffer<u16> idea_key =
      sys.Allocate<u16>(static_cast<u32>(subkeys.size())).value();
  idea_key.Fill(std::span<const u16>(subkeys.data(), subkeys.size()));
  VcopdClient idea_client(daemon, idea_tenant);
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjIn, idea_in,
                              /*elem_width=*/4, Direction::kIn).ok());
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjOut, idea_out,
                              /*elem_width=*/4, Direction::kOut).ok());
  ASSERT_TRUE(idea_client.Map(cp::IdeaCoprocessor::kObjKey, idea_key,
                              Direction::kIn).ok());

  VcopdClient ca(daemon, alpha.tenant);
  VcopdClient cv(daemon, vecadd.tenant);
  const Ticket ta = ca.Submit(cp::AdpcmDecodeBitstream(),
                              {alpha.input_bytes, 0u, 0u}).value();
  ASSERT_TRUE(idea_client
                  .Submit(cp::IdeaBitstream(),
                          {idea_bytes / 8, cp::IdeaCoprocessor::kModeEcb,
                           0u, 0u})
                  .ok());
  ASSERT_TRUE(cv.Submit(cp::VecAddBitstream(), {2048u}).ok());
  ASSERT_TRUE(daemon.RunUntilIdle().ok());

  const JobResult* ra = daemon.Poll(ta);
  ASSERT_NE(ra, nullptr);
  ASSERT_TRUE(ra->status.ok());
  EXPECT_GT(ra->preemptions, 0u);
  // The resumed slice found its slot evicted: >= 2 full
  // configurations charged to one job.
  EXPECT_GE(ra->reconfigurations, 2u);
  EXPECT_GT(sys.kernel().fabric().slot_stats().evictions, 0u);
  EXPECT_EQ(alpha.out.ToVector(), alpha.expect);
  EXPECT_EQ(idea_out.ToVector(), expect_cipher);
  EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);

  // Satellite 1's under-reporting fix: the schedule report rolls the
  // per-slice count up, not just a first-slice bool.
  const ScheduleReport report = daemon.BuildScheduleReport();
  u32 alpha_reconfigs = 0;
  for (const JobOutcome& outcome : report.outcomes) {
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

    AdpcmJob adpcm = StageAdpcm(sys, daemon, "adpcm", 4 * 1024, 29);
    VecAddJob vecadd = StageVecAdd(sys, daemon, "vecadd", 1024, 30);
    VcopdClient ca(daemon, adpcm.tenant);
    VcopdClient cv(daemon, vecadd.tenant);
    for (u32 round = 0; round < 3; ++round) {
      ASSERT_TRUE(ca.Submit(cp::AdpcmDecodeBitstream(),
                            {adpcm.input_bytes, 0u, 0u}).ok());
      ASSERT_TRUE(cv.Submit(cp::VecAddBitstream(), {1024u}).ok());
    }
    ASSERT_TRUE(daemon.RunUntilIdle().ok());
    EXPECT_EQ(daemon.stats().completed, 6u);
    EXPECT_EQ(daemon.stats().failed, 0u);
    EXPECT_EQ(adpcm.out.ToVector(), adpcm.expect);
    EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);
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

    AdpcmJob a0 = StageAdpcm(sys, daemon, "adpcm-0", 512, 33);
    VecAddJob vecadd = StageVecAdd(sys, daemon, "vecadd", 256, 34);
    AdpcmJob a1 = StageAdpcm(sys, daemon, "adpcm-1", 512, 35);
    AdpcmJob a2 = StageAdpcm(sys, daemon, "adpcm-2", 512, 36);
    u32 adpcm_done = 0;
    u32 adpcm_before_vecadd = 0;
    for (const AdpcmJob* job : {&a0, &a1, &a2}) {
      VcopdClient client(daemon, job->tenant);
      for (u32 i = 0; i < 6; ++i) {
        ASSERT_TRUE(client
                        .Submit(cp::AdpcmDecodeBitstream(),
                                {job->input_bytes, 0u, 0u},
                                [&](const JobResult&) { ++adpcm_done; })
                        .ok());
      }
    }
    VcopdClient cv(daemon, vecadd.tenant);
    ASSERT_TRUE(cv.Submit(cp::VecAddBitstream(), {256u},
                          [&](const JobResult&) {
                            adpcm_before_vecadd = adpcm_done;
                          })
                    .ok());
    ASSERT_TRUE(daemon.RunUntilIdle().ok());

    EXPECT_EQ(adpcm_before_vecadd, 1 + 3 * budget) << "budget " << budget;
    EXPECT_EQ(daemon.stats().completed, 19u);
    EXPECT_EQ(daemon.stats().preemptions, 0u);
    EXPECT_EQ(vecadd.c.ToVector(), vecadd.expect);
    for (const AdpcmJob* job : {&a0, &a1, &a2}) {
      EXPECT_EQ(job->out.ToVector(), job->expect);
    }
  }
}

}  // namespace
}  // namespace vcop::os
