// Tests for the DESIGN.md §10 speculation features: the adaptive
// prefetch detector and the VIM's central suggestion clamp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/adpcm.h"
#include "apps/workloads.h"
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
  // Background work on; the strategy is replaced below.
  config.vim.prefetch = PrefetchKind::kSequential;
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

}  // namespace
}  // namespace vcop::os
