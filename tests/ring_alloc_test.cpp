// Heap bounds shown by a counting global operator new, switched on only
// inside a measured scope. Idle rings store nothing: a freshly built
// submission or completion ring makes no heap allocation, and one
// drained of every descriptor it held keeps no FIFO bytes. A timeline
// stores a fault in a few bytes of a shared chunk and allocates only to
// open the next chunk. A page manager chooses a victim without
// allocating, and a thrashing gather's faults allocate almost nothing.
// A finished vcopd job keeps a packed record, and reading a schedule
// report decodes it without allocating. A ring job allocates only its
// two ring nodes beyond what a direct job does, and attaching an unknown
// tenant keeps nothing. The replacement applies to the whole program,
// so these tests have a binary of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include <optional>
#include <string>
#include <vector>

#include "base/types.h"
#include "bench/common.h"
#include "mem/page.h"
#include "os/page_manager.h"
#include "os/policy.h"
#include "os/ring.h"
#include "os/service.h"
#include "os/timeline.h"
#include "os/vcopd.h"
#include "runtime/fpga_api.h"

namespace {

// Every block carries its size in a header, so a delete can take it off
// the live count. The header keeps the default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

bool counting = false;
vcop::u64 allocations = 0;
vcop::i64 live_bytes = 0;

/// Counts allocations and live bytes from construction to destruction.
/// Nothing allocated before the scope opened may be freed inside it.
class AllocationScope {
 public:
  AllocationScope() {
    allocations = 0;
    live_bytes = 0;
    counting = true;
  }
  ~AllocationScope() { counting = false; }
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  vcop::u64 allocations_made() const { return allocations; }
  vcop::i64 bytes_live() const { return live_bytes; }
};

}  // namespace

// Not inlined: GCC would otherwise read the size header of blocks it
// sees the library allocate and warn about bounds it cannot follow.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* block = std::malloc(kHeader + size);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  if (counting) {
    ++allocations;
    live_bytes += static_cast<vcop::i64>(size);
  }
  return static_cast<char*>(block) + kHeader;
}

[[gnu::noinline]] void operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* block = static_cast<char*>(ptr) - kHeader;
  const std::size_t size = *static_cast<std::size_t*>(block);
  if (counting) live_bytes -= static_cast<vcop::i64>(size);
  std::free(block);
}

void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }

// The array forms count too: a sanitizer runtime supplies its own
// operator new[] that would otherwise bypass the count.
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* ptr) noexcept { operator delete(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { operator delete(ptr); }

namespace vcop::os {
namespace {

constexpr u32 kEntries = 64;

TEST(RingAllocationTest, IdleRingsAllocateNothing) {
  u64 made = 0;
  i64 live = 0;
  {
    AllocationScope scope;
    const SubmissionRing submissions(kEntries);
    const CompletionRing completions(kEntries);
    made = scope.allocations_made();
    live = scope.bytes_live();
  }
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(live, 0);
}

/// Filling both rings and draining them, three times over, returns each
/// to zero live FIFO bytes: the storage follows the descriptors in
/// flight, and the ring built inside the scope keeps none of its own.
TEST(RingAllocationTest, DrainedRingsHoldNoFifoBytes) {
  constexpr int kRounds = 3;
  i64 full[kRounds] = {};
  i64 drained[kRounds] = {};
  bool rings_ok = true;
  {
    AllocationScope scope;
    SubmissionRing submissions(kEntries);
    CompletionRing completions(kEntries);
    for (int round = 0; round < kRounds; ++round) {
      for (u64 cookie = 1; cookie <= kEntries; ++cookie) {
        RingDescriptor descriptor;
        descriptor.cookie = cookie;
        rings_ok &= submissions.Publish(descriptor).ok();
        CompletionDescriptor completion;
        completion.cookie = cookie;
        rings_ok &= completions.Push(completion).ok();
      }
      full[round] = scope.bytes_live();
      for (u64 cookie = 1; cookie <= kEntries; ++cookie) {
        rings_ok &= submissions.Consume().cookie == cookie;
        rings_ok &= completions.Reap().cookie == cookie;
      }
      rings_ok &= submissions.empty() && completions.empty();
      drained[round] = scope.bytes_live();
    }
  }
  EXPECT_TRUE(rings_ok);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    EXPECT_GE(full[round],
              static_cast<i64>(kEntries * (sizeof(RingDescriptor) +
                                           sizeof(CompletionDescriptor))));
    EXPECT_EQ(drained[round], 0);
  }
}

/// 10 000 faults shaped like gather_thrash's (objects 0-2, pages 0-23,
/// about 90 us apart and as long) cost at most 16 live bytes each, and
/// only the calls that open a chunk allocate. A name formatted per event
/// or a fixed 32-byte record breaks one bound or the other.
TEST(TimelineAllocationTest, FaultsAllocateOnlyForNewChunks) {
  constexpr u32 kEvents = 10'000;
  u64 allocating_records = 0;
  i64 live = 0;
  {
    AllocationScope scope;
    TimelineRecorder timeline;
    u64 state = 1;
    Picoseconds start = 0;
    for (u32 i = 0; i < kEvents; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const u32 jitter = static_cast<u32>(state >> 44);  // < 1.05 us
      start += 89'500'000 + jitter;
      const u64 before = scope.allocations_made();
      timeline.Record(TimelineKind::kFault, start, 91'000'000 + jitter,
                      {(state >> 33) % 3, (state >> 40) % 24});
      allocating_records += scope.allocations_made() != before;
    }
    live = scope.bytes_live();
  }
  EXPECT_LE(live, static_cast<i64>(16 * kEvents));
  // Each allocating call opened a chunk, which is still live: the first
  // of kFirstChunkBytes, every later one of kChunkBytes.
  ASSERT_GE(live, static_cast<i64>(TimelineRecorder::kFirstChunkBytes));
  EXPECT_GT(allocating_records, 0u);
  EXPECT_LE(allocating_records,
            1 + (static_cast<u64>(live) - TimelineRecorder::kFirstChunkBytes) /
                    TimelineRecorder::kChunkBytes);
}

/// A full 8-frame PageManager makes 10 000 victim choices under each
/// policy, wsfifo first, cycling through a sequential demand fault, a
/// run-breaking one, a re-fault and a parameter page, each followed by
/// the release and install the VIM makes. No choice allocates: the
/// evictable mask is a member refilled per choice, wsfifo passes
/// referenced frames by in place instead of copying the mask, and the
/// random policy counts its candidates instead of listing them.
TEST(FrameChoiceAllocationTest, EvictingFaultsAllocateNothing) {
  constexpr u32 kFrames = 8;
  constexpr u32 kChoices = 10'000;
  const std::vector<bool> referenced = {true,  false, true,  false,
                                        false, true,  false, false};
  for (const PolicyKind kind : {PolicyKind::kWsFifo, PolicyKind::kFifo,
                                PolicyKind::kLru, PolicyKind::kRandom}) {
    SCOPED_TRACE(ToString(kind));
    PageManager pages(mem::PageGeometry(2048, kFrames));
    pages.SetPolicy(MakePolicy(kind, /*seed=*/1));
    for (mem::FrameId f = 0; f < kFrames; ++f) {
      pages.Install(f, /*object=*/0, f, /*pinned=*/false, /*asid=*/0);
    }
    u64 made = 0;
    bool every_choice_found = true;
    {
      AllocationScope scope;
      for (u32 i = 0; i < kChoices; ++i) {
        const mem::VirtPage vpage = kFrames + i;
        const DemandFault sequential{0, vpage, vpage - 1, referenced};
        const DemandFault jump{0, vpage, vpage + 5, referenced};
        const DemandFault refault{0, vpage, vpage - 1, referenced, true};
        const DemandFault* const demand[] = {&sequential, &jump, &refault,
                                             nullptr};
        const std::optional<mem::FrameId> frame =
            pages.Choose(/*span=*/1, demand[i % 4]);
        every_choice_found &= frame.has_value();
        if (!frame.has_value()) break;
        pages.Touch((*frame + 3) % kFrames);
        pages.Release(*frame);
        pages.Install(*frame, /*object=*/0, vpage, /*pinned=*/false,
                      /*asid=*/0);
      }
      made = scope.allocations_made();
    }
    EXPECT_TRUE(every_choice_found);
    EXPECT_EQ(made, 0u);
  }
}

/// A 6 144-word gather on the EPXA1 (about 3 000 faults) makes fewer
/// than 100 allocations in its FPGA_EXECUTE, with and without background
/// cleaning: a fault harvests the TLB's accessed bits in place, and the
/// cleaning pass and the sweeps walk a space's frames in place. Building
/// a vector of either per fault made 9 557 and 21 514 allocations.
TEST(FaultPathAllocationTest, ThrashingGatherAllocatesFewTimes) {
  for (const PrefetchKind prefetch :
       {PrefetchKind::kNone, PrefetchKind::kClean}) {
    SCOPED_TRACE(ToString(prefetch));
    KernelConfig config;
    config.vim.prefetch = prefetch;
    runtime::FpgaSystem sys(config);
    const bench::StagedJob staged = bench::StageBlocking(
        sys, bench::MakeJob(bench::App::kGather, 6144 * 4, 1));
    u64 made = 0;
    u64 faults = 0;
    {
      AllocationScope scope;
      const Result<ExecutionReport> report = sys.Execute(staged.job.params);
      made = scope.allocations_made();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      faults = report.value().vim.faults;
    }
    EXPECT_TRUE(staged.Exact());
    EXPECT_GT(faults, 2000u);
    EXPECT_LT(made, 100u);
    RecordProperty("allocations_" + std::string(ToString(prefetch)),
                   static_cast<int>(made));
  }
}

/// Runs `count` small vecadd jobs one after another on `job`'s tenant.
void RunSmallJobs(Vcopd& daemon, const bench::StagedJob& job, u32 count) {
  for (u32 i = 0; i < count; ++i) {
    const Result<JobResult> done = daemon.Wait(job.Submit(daemon).value());
    VCOP_CHECK(done.ok() && done.value().status.ok());
  }
}

/// What a finished job keeps grows the heap by 189 bytes: its packed
/// record, its slot in the ticket index and the timeline's six events
/// for it, measured as the live bytes that N more 256-byte vecadd jobs
/// add after N. Keeping a 464-byte JobResult per job read 522 bytes.
TEST(HistoryAllocationTest, AFinishedJobKeepsAPackedRecord) {
  constexpr u32 kJobs = 2000;
  i64 after_n = 0;
  i64 after_2n = 0;
  {
    runtime::FpgaSystem sys(KernelConfig{});
    Vcopd daemon(sys.kernel());
    const bench::StagedJob job = bench::StageTenant(
        sys, daemon, "small", bench::MakeJob(bench::App::kVecAdd, 256, 1));
    RunSmallJobs(daemon, job, kJobs);
    AllocationScope scope;
    RunSmallJobs(daemon, job, kJobs);
    after_n = scope.bytes_live();
    RunSmallJobs(daemon, job, kJobs);
    after_2n = scope.bytes_live();
  }
  const double per_job = static_cast<double>(after_2n - after_n) / kJobs;
  RecordProperty("history_bytes_per_job", std::to_string(per_job));
  EXPECT_GT(per_job, 0.0);
  EXPECT_LT(per_job, 240.0);
}

/// Reading a built schedule report decodes each outcome in place: a
/// pass over 500 outcomes, and indexing every one, allocate nothing.
TEST(HistoryAllocationTest, ReadingAReportAllocatesNothing) {
  constexpr u32 kJobs = 500;
  runtime::FpgaSystem sys(KernelConfig{});
  Vcopd daemon(sys.kernel());
  const bench::StagedJob job = bench::StageTenant(
      sys, daemon, "small", bench::MakeJob(bench::App::kVecAdd, 256, 1));
  RunSmallJobs(daemon, job, kJobs);
  const ScheduleReport report = daemon.BuildScheduleReport();
  ASSERT_EQ(report.outcomes.size(), kJobs);
  u64 made = 0;
  Picoseconds busy = 0;
  {
    AllocationScope scope;
    for (const JobResult& outcome : report.outcomes) {
      busy += outcome.finished_at - outcome.started_at;
    }
    for (usize i = 0; i < report.outcomes.size(); ++i) {
      busy -= report.outcomes[i].finished_at - report.outcomes[i].started_at;
    }
    made = scope.allocations_made();
  }
  EXPECT_EQ(busy, 0u);
  EXPECT_EQ(made, 0u);
}

/// The fewest allocations `run` makes over 32 calls: a call that also
/// grows the history, the ticket index or the timeline by a chunk
/// counts more, and the fewest leaves those out.
template <typename Run>
u64 FewestAllocations(Run run) {
  u64 fewest = ~u64{0};
  for (int i = 0; i < 32; ++i) {
    AllocationScope scope;
    run();
    fewest = std::min(fewest, scope.allocations_made());
  }
  return fewest;
}

/// A 256-byte vecadd job through the ring (publish, kick, drive, reap)
/// allocates what the same job submitted straight to the daemon does,
/// plus one node in each ring: its descriptor and its completion. The
/// job carries the descriptor's cookie to its tenant's one completion
/// listener. A callback per job that captured the service, the port and
/// the cookie (24 bytes, past std::function's 16-byte inline buffer)
/// allocated once more.
TEST(ServiceAllocationTest, ARingJobAllocatesOnlyItsTwoRingNodesMore) {
  runtime::FpgaSystem sys(KernelConfig{});
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  const bench::StagedJob job = bench::StageTenant(
      sys, daemon, "small", bench::MakeJob(bench::App::kVecAdd, 256, 1));
  ASSERT_TRUE(service.AttachTenant(job.tenant).ok());
  RingDescriptor descriptor;
  descriptor.design = service.RegisterDesign(job.job.bitstream);
  descriptor.nparams = static_cast<u32>(job.job.params.size());
  std::ranges::copy(job.job.params, descriptor.params.begin());

  const u64 direct = FewestAllocations([&] {
    VCOP_CHECK(daemon.Wait(job.Submit(daemon).value()).value().status.ok());
  });
  const u64 ringed = FewestAllocations([&] {
    ++descriptor.cookie;
    VCOP_CHECK(service.Publish(job.tenant, descriptor).ok());
    VCOP_CHECK(service.Kick(job.tenant).ok());
    VCOP_CHECK(service.RunUntilQuiescent().ok());
    VCOP_CHECK(service.Reap(job.tenant).value().code == 0);
  });
  EXPECT_TRUE(job.Exact());
  EXPECT_GT(direct, 0u);
  EXPECT_EQ(ringed, direct + 2);
  RecordProperty("direct_job_allocations", static_cast<int>(direct));
  RecordProperty("ring_job_allocations", static_cast<int>(ringed));
}

/// Attaching a tenant the daemon does not know fails with NotFound and
/// keeps nothing: no port, and no port index sized to the id, however
/// large. The one allocation it may make is the error's message.
TEST(ServiceAllocationTest, AttachingAnUnknownTenantKeepsNothing) {
  runtime::FpgaSystem sys(KernelConfig{});
  Vcopd daemon(sys.kernel());
  VcopService service(daemon);
  ASSERT_TRUE(daemon.RegisterTenant("known").ok());
  for (const TenantId unknown :
       {TenantId{0}, TenantId{2}, TenantId{1'000'000}, ~TenantId{0}}) {
    SCOPED_TRACE(unknown);
    ErrorCode code = ErrorCode::kOk;
    u64 made = 0;
    i64 live = 0;
    {
      AllocationScope scope;
      code = service.AttachTenant(unknown).code();
      made = scope.allocations_made();
      live = scope.bytes_live();
    }
    EXPECT_EQ(code, ErrorCode::kNotFound);
    EXPECT_LE(made, 1u);
    EXPECT_EQ(live, 0);
  }
}

}  // namespace
}  // namespace vcop::os
