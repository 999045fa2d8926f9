// Tests for the DESIGN.md §10 speculation-and-batching features: the
// adaptive prefetch detector, the VIM's central suggestion clamp, and
// the coalesced scatter-gather write-back (cost parity, DMA
// amortisation, mid-burst fault recovery).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/adpcm.h"
#include "apps/workloads.h"
#include "base/fault.h"
#include "mem/ahb.h"
#include "mem/dp_ram.h"
#include "mem/transfer.h"
#include "mem/user_memory.h"
#include "os/prefetch.h"
#include "os/vim.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop::os {
namespace {

using runtime::FpgaSystem;

// ----- adaptive (reference-prediction table) detector -----

std::vector<mem::VirtPage> Pages(
    const std::vector<PrefetchSuggestion>& suggestions) {
  std::vector<mem::VirtPage> pages;
  for (const PrefetchSuggestion& s : suggestions) pages.push_back(s.vpage);
  return pages;
}

TEST(AdaptivePrefetcherTest, TracksInterleavedStreamsIndependently) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/2);
  // Three interleaved unit-stride streams — the conv2d shape (three
  // live image rows, each a stream of consecutive pages). A single
  // stride detector would lock onto the +100 cross-stream delta; the
  // stream slots keep them apart.
  EXPECT_TRUE(p->Suggest(0, 0, 1000).empty());
  EXPECT_TRUE(p->Suggest(0, 100, 1000).empty());
  EXPECT_TRUE(p->Suggest(0, 200, 1000).empty());
  EXPECT_TRUE(p->Suggest(0, 1, 1000).empty());    // stride learned
  EXPECT_TRUE(p->Suggest(0, 101, 1000).empty());
  EXPECT_TRUE(p->Suggest(0, 201, 1000).empty());
  // Third fault of each stream: the automaton reaches steady state and
  // follows each stream's own +1 stride.
  EXPECT_EQ(Pages(p->Suggest(0, 2, 1000)),
            (std::vector<mem::VirtPage>{3, 4}));
  EXPECT_EQ(Pages(p->Suggest(0, 102, 1000)),
            (std::vector<mem::VirtPage>{103, 104}));
  EXPECT_EQ(Pages(p->Suggest(0, 202, 1000)),
            (std::vector<mem::VirtPage>{203, 204}));
}

TEST(AdaptivePrefetcherTest, IrregularTraceDegradesToNoop) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/2);
  // Every fault lands outside the association window of every stream,
  // so each one just starts (or recycles) a slot and predicts nothing.
  for (const mem::VirtPage page :
       {0u, 20u, 41u, 63u, 86u, 110u, 135u, 161u}) {
    EXPECT_TRUE(p->Suggest(0, page, 1000).empty()) << "page " << page;
  }
}

TEST(AdaptivePrefetcherTest, ReFaultOnCurrentPositionIsNotNoise) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/1);
  p->Suggest(0, 0, 100);
  p->Suggest(0, 1, 100);
  EXPECT_EQ(Pages(p->Suggest(0, 2, 100)), (std::vector<mem::VirtPage>{3}));
  // A repeated fault on the stream's current page (eviction + re-touch)
  // must not demote the automaton: the stream keeps suggesting.
  EXPECT_TRUE(p->Suggest(0, 2, 100).empty());
  EXPECT_EQ(Pages(p->Suggest(0, 3, 100)), (std::vector<mem::VirtPage>{4}));
}

TEST(AdaptivePrefetcherTest, ResetForgetsLearnedStride) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/2);
  p->Suggest(0, 0, 100);
  p->Suggest(0, 3, 100);
  EXPECT_FALSE(p->Suggest(0, 6, 100).empty());
  p->Reset();
  // Without the reset the stream would have predicted page 9.
  EXPECT_TRUE(p->Suggest(0, 9, 100).empty());   // history gone
  EXPECT_TRUE(p->Suggest(0, 12, 100).empty());  // stride 3 seen once
  EXPECT_FALSE(p->Suggest(0, 15, 100).empty()); // re-learned
}

TEST(AdaptivePrefetcherTest, TracksObjectsIndependently) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/1);
  // Object 0 walks +2, object 1 walks +5; interleaved faults must not
  // bleed one object's stride into the other.
  p->Suggest(0, 0, 100);
  p->Suggest(1, 0, 100);
  p->Suggest(0, 2, 100);
  p->Suggest(1, 5, 100);
  EXPECT_EQ(Pages(p->Suggest(0, 4, 100)), (std::vector<mem::VirtPage>{6}));
  EXPECT_EQ(Pages(p->Suggest(1, 10, 100)),
            (std::vector<mem::VirtPage>{15}));
}

TEST(AdaptivePrefetcherTest, SuggestionsStopAtObjectEnd) {
  auto p = MakePrefetcher(PrefetchKind::kAdaptive, /*depth=*/4);
  p->Suggest(0, 0, 8);
  p->Suggest(0, 2, 8);
  // Steady +2 from page 4: depth 4 would reach pages 6, 8, 10, 12, but
  // only 6 is inside the 8-page object.
  EXPECT_EQ(Pages(p->Suggest(0, 4, 8)), (std::vector<mem::VirtPage>{6}));
}

// ----- the VIM's central Suggest-contract clamp -----

/// Violates every clause of the Prefetcher contract on purpose, plus
/// one legitimate suggestion so the test can see valid ones survive.
class HostilePrefetcher final : public Prefetcher {
 public:
  std::string_view name() const override { return "hostile"; }
  std::vector<PrefetchSuggestion> Suggest(hw::ObjectId object,
                                          mem::VirtPage vpage,
                                          u32 num_pages) override {
    std::vector<PrefetchSuggestion> out;
    out.push_back({static_cast<hw::ObjectId>(object + 1), vpage});  // wrong object
    out.push_back({object, vpage});                                 // the faulting page
    out.push_back({object, num_pages + 5});                         // out of range
    if (vpage + 1 < num_pages) out.push_back({object, vpage + 1});  // legitimate
    return out;
  }
};

TEST(VimPrefetchContractTest, HostileSuggestionsAreDroppedCentrally) {
  KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = PrefetchKind::kNone;  // replaced below
  FpgaSystem sys(config);
  sys.kernel().vim().SetPrefetcher(std::make_unique<HostilePrefetcher>());

  const std::vector<u8> input = apps::MakeAdpcmStream(4096, 5);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // A buggy strategy cannot corrupt a run or crash the VIM: the clamp
  // drops every contract violation and counts them...
  EXPECT_EQ(run.value().output, expect);
  EXPECT_GT(run.value().report.vim.prefetch_suggestions_dropped, 0u);
  // ...while the legitimate suggestions still get prefetched.
  EXPECT_GT(run.value().report.vim.prefetched_pages, 0u);
}

// ----- coalesced scatter-gather write-back (mem level) -----

constexpr u32 kPage = 2048;

class StoreBurstTest : public ::testing::Test {
 protected:
  StoreBurstTest()
      : user_(1 << 16),
        dp_(16384),
        // 100 MHz on both clocks: an integer 10000 ps period, so every
        // cycles->time conversion is exact and cycle-level equalities
        // show up as picosecond-level equalities.
        engine_(mem::AhbModel(mem::AhbTiming{}, Frequency::MHz(100)),
                Frequency::MHz(100), mem::CopyMode::kDoubleCopy,
                /*sdram_cycles_per_word=*/12) {}

  /// Fills DP-RAM with a pattern and returns `n` page-sized segments
  /// targeting freshly allocated user buffers.
  std::vector<mem::StoreSegment> MakePageSegments(u32 n) {
    std::vector<u8> pattern(kPage);
    std::vector<mem::StoreSegment> segments;
    for (u32 i = 0; i < n; ++i) {
      for (u32 b = 0; b < kPage; ++b) {
        pattern[b] = static_cast<u8>(i * 37 + b * 11);
      }
      dp_.Write(mem::DualPortRam::Port::kProcessor, i * kPage, pattern);
      const mem::UserAddr dst = user_.Allocate(kPage).value();
      segments.push_back({i * kPage, dst, kPage});
    }
    return segments;
  }

  void ExpectSegmentLanded(const mem::StoreSegment& seg, u32 index) {
    std::vector<u8> back(seg.len);
    user_.ReadBytes(seg.dst, back);
    for (u32 b = 0; b < seg.len; ++b) {
      ASSERT_EQ(back[b], static_cast<u8>(index * 37 + b * 11))
          << "segment " << index << " byte " << b;
    }
  }

  mem::UserMemory user_;
  mem::DualPortRam dp_;
  mem::TransferEngine engine_;
};

TEST_F(StoreBurstTest, SingleSegmentMatchesStorePage) {
  const std::vector<mem::StoreSegment> segments = MakePageSegments(1);
  const mem::BurstResult r = engine_.StoreBurst(dp_, user_, segments);
  EXPECT_FALSE(r.bus_error);
  EXPECT_EQ(r.bytes, kPage);
  EXPECT_EQ(r.completed_segments, 1u);
  EXPECT_EQ(r.time, engine_.PriceTransfer(kPage));
  ExpectSegmentLanded(segments[0], 0);
}

TEST_F(StoreBurstTest, AlignedPagesPriceExactlyAsPerPageInCpuModes) {
  // 2 KB pages are whole multiples of the 16-beat burst, so packing
  // them into one transaction saves no bus work in the CPU copy modes:
  // at an integer clock period the burst price equals the per-page sum
  // to the picosecond.
  for (const mem::CopyMode mode :
       {mem::CopyMode::kDoubleCopy, mem::CopyMode::kSingleCopy}) {
    engine_.set_mode(mode);
    EXPECT_EQ(engine_.PriceBurst(4 * kPage), 4 * engine_.PriceTransfer(kPage))
        << ToString(mode);
  }
}

TEST_F(StoreBurstTest, DmaBurstAmortisesChannelSetup) {
  engine_.set_mode(mem::CopyMode::kDma);
  // One channel programming (200 CPU cycles) instead of four: the burst
  // is cheaper by exactly the three saved setups.
  const Picoseconds setup = Frequency::MHz(100).Duration(200);
  EXPECT_EQ(4 * engine_.PriceTransfer(kPage) - engine_.PriceBurst(4 * kPage),
            3 * setup);

  const std::vector<mem::StoreSegment> segments = MakePageSegments(4);
  const mem::BurstResult r = engine_.StoreBurst(dp_, user_, segments);
  EXPECT_FALSE(r.bus_error);
  EXPECT_EQ(r.completed_segments, 4u);
  EXPECT_EQ(r.time, engine_.PriceBurst(4 * kPage));
  for (u32 i = 0; i < 4; ++i) ExpectSegmentLanded(segments[i], i);
}

TEST_F(StoreBurstTest, PartialTailSegmentsPackIntoSharedBursts) {
  // Two 20-byte segments: 5 words each, so separately each pays a full
  // 16-beat burst setup; packed, their 10 words share ONE burst — the
  // combined price is strictly cheaper than the per-segment sum.
  std::vector<u8> data(20, 0xAB);
  dp_.Write(mem::DualPortRam::Port::kProcessor, 0, data);
  dp_.Write(mem::DualPortRam::Port::kProcessor, 4096, data);
  const mem::UserAddr a = user_.Allocate(20).value();
  const mem::UserAddr b = user_.Allocate(20).value();
  const std::vector<mem::StoreSegment> segments{{0, a, 20}, {4096, b, 20}};
  const mem::BurstResult r = engine_.StoreBurst(dp_, user_, segments);
  EXPECT_FALSE(r.bus_error);
  EXPECT_EQ(r.bytes, 40u);
  EXPECT_LT(r.time, 2 * engine_.PriceTransfer(20));
  std::vector<u8> back(20);
  user_.ReadBytes(a, back);
  EXPECT_EQ(back, data);
  user_.ReadBytes(b, back);
  EXPECT_EQ(back, data);
}

TEST_F(StoreBurstTest, ErrorMidBurstKeepsEarlierSegments) {
  FaultPlan plan;
  plan.At(FaultSite::kAhbError, 3);  // third segment of the burst
  engine_.set_fault_plan(&plan);
  const std::vector<mem::StoreSegment> segments = MakePageSegments(4);
  // Pre-fill the targets so "never written" is observable.
  const std::vector<u8> sentinel(kPage, 0xEE);
  for (const mem::StoreSegment& seg : segments) {
    user_.WriteBytes(seg.dst, sentinel);
  }

  const mem::BurstResult r = engine_.StoreBurst(dp_, user_, segments);
  EXPECT_TRUE(r.bus_error);
  EXPECT_EQ(r.completed_segments, 2u);
  EXPECT_EQ(r.bytes, 2u * kPage);
  ExpectSegmentLanded(segments[0], 0);
  ExpectSegmentLanded(segments[1], 1);
  // The failing and never-started segments left user memory untouched.
  for (u32 i = 2; i < 4; ++i) {
    std::vector<u8> back(kPage);
    user_.ReadBytes(segments[i].dst, back);
    EXPECT_EQ(back, sentinel) << "segment " << i;
  }
}

TEST_F(StoreBurstTest, RetriedBeatCostsTimeNotData) {
  FaultPlan plan;
  plan.At(FaultSite::kAhbRetry, 1);
  engine_.set_fault_plan(&plan);
  const std::vector<mem::StoreSegment> segments = MakePageSegments(2);
  const mem::BurstResult r = engine_.StoreBurst(dp_, user_, segments);
  EXPECT_FALSE(r.bus_error);
  EXPECT_EQ(r.completed_segments, 2u);
  EXPECT_GE(r.retried_beats, 1u);
  EXPECT_GT(r.time, engine_.PriceBurst(2 * kPage));
  ExpectSegmentLanded(segments[0], 0);
  ExpectSegmentLanded(segments[1], 1);
}

// ----- coalesced write-back through the VIM, with and without faults -----

struct CoalesceRun {
  bool ok = false;
  bool exact = false;
  VimServiceStats service;
};

CoalesceRun RunAdpcmCoalesced(bool coalesce, FaultPlan* plan) {
  KernelConfig config = runtime::Epxa1Config();
  config.vim.coalesce_writeback = coalesce;
  FpgaSystem sys(config);
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 9);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);

  CoalesceRun out;
  auto run = runtime::RunAdpcmVim(sys, input);
  out.ok = run.ok();
  out.exact = run.ok() && run.value().output == expect;
  out.service = sys.kernel().vim().service_stats();
  return out;
}

TEST(CoalesceVimTest, BurstFlushIsExactAndCounted) {
  const CoalesceRun off = RunAdpcmCoalesced(false, nullptr);
  const CoalesceRun on = RunAdpcmCoalesced(true, nullptr);
  ASSERT_TRUE(off.ok && off.exact);
  ASSERT_TRUE(on.ok && on.exact);
  EXPECT_EQ(off.service.coalesced_bursts, 0u);
  EXPECT_GT(on.service.coalesced_bursts, 0u);
  EXPECT_GE(on.service.coalesced_pages, 2u);
}

TEST(CoalesceVimTest, InjectedBusErrorsRetryOrAbortCleanly) {
  u64 retries = 0;
  u64 exact_runs = 0;
  for (u64 seed = 1; seed <= 10; ++seed) {
    FaultPlan plan;
    // The plan's Rng is fixed; varying the probability across runs
    // varies where (and whether) the errors land.
    plan.WithProbability(FaultSite::kAhbError, 0.02 * static_cast<double>(seed));
    const CoalesceRun run = RunAdpcmCoalesced(true, &plan);
    // Every outcome must be clean: either the retry chain absorbed the
    // errors and the output is exact, or the run failed with a status —
    // never a silently truncated result.
    if (run.ok) {
      EXPECT_TRUE(run.exact) << "seed " << seed;
      ++exact_runs;
    }
    retries += run.service.transfer_retries;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(exact_runs, 0u);
}

TEST(CoalesceVimTest, DeterministicMidBurstErrorIsRetriedInPlace) {
  // First pass: an armed-but-unreachable plan counts the run's AHB
  // opportunities without perturbing it. Second pass: arm the error at
  // the LAST opportunity — with coalescing on, that is a segment of the
  // end-of-operation burst flush, the exact path the bounded retry
  // chain must recover in place.
  FaultPlan probe;
  probe.At(FaultSite::kAhbError, ~0ull);
  const CoalesceRun clean = RunAdpcmCoalesced(true, &probe);
  ASSERT_TRUE(clean.ok && clean.exact);
  const u64 opportunities = probe.stats(FaultSite::kAhbError).opportunities;
  ASSERT_GT(opportunities, 0u);

  FaultPlan plan;
  plan.At(FaultSite::kAhbError, opportunities);
  const CoalesceRun run = RunAdpcmCoalesced(true, &plan);
  ASSERT_TRUE(run.ok);
  EXPECT_TRUE(run.exact);
  EXPECT_EQ(run.service.transfer_retries, 1u);
  EXPECT_GT(run.service.coalesced_bursts, 0u);
}

}  // namespace
}  // namespace vcop::os
