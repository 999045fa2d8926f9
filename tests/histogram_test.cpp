// Histogram coprocessor tests: read-modify-write consistency on an
// INOUT object under data-dependent addressing — increments must
// survive eviction/write-back/reload cycles of the bins' pages, under
// every replacement policy and with overlapped speculation racing the
// core.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "cp/histogram_cp.h"
#include "cp/registry.h"
#include "runtime/config.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::FpgaSystem;

struct HistogramRun {
  std::vector<u32> bins;
  os::ExecutionReport report;
};

HistogramRun RunHistogram(const os::KernelConfig& config,
                          std::span<const u32> values, u32 num_bins,
                          std::span<const u32> initial_bins = {}) {
  VCOP_CHECK(IsPowerOfTwo(num_bins));
  FpgaSystem sys(config);
  VCOP_CHECK(sys.Load(cp::HistogramBitstream()).ok());
  auto in = sys.Allocate<u32>(static_cast<u32>(values.size()));
  auto bins = sys.Allocate<u32>(num_bins);
  VCOP_CHECK(in.ok() && bins.ok());
  in.value().Fill(values);
  if (!initial_bins.empty()) bins.value().Fill(initial_bins);
  VCOP_CHECK(sys.Map(cp::HistogramCoprocessor::kObjIn, in.value(),
                     os::Direction::kIn)
                 .ok());
  VCOP_CHECK(sys.Map(cp::HistogramCoprocessor::kObjBins, bins.value(),
                     os::Direction::kInOut)
                 .ok());
  auto report = sys.Execute(
      {static_cast<u32>(values.size()), num_bins - 1});
  VCOP_CHECK_MSG(report.ok(), report.status().ToString());
  return HistogramRun{bins.value().ToVector(), report.value()};
}

std::vector<u32> HostHistogram(std::span<const u32> values, u32 num_bins) {
  std::vector<u32> bins(num_bins, 0);
  for (const u32 v : values) bins[v & (num_bins - 1)]++;
  return bins;
}

TEST(HistogramTest, SmallExact) {
  const std::vector<u32> values = {0, 1, 1, 2, 2, 2, 7, 7, 7, 7};
  const HistogramRun run =
      RunHistogram(runtime::Epxa1Config(), values, 8);
  EXPECT_EQ(run.bins, HostHistogram(values, 8));
  EXPECT_EQ(run.bins[2], 3u);
  EXPECT_EQ(run.bins[7], 4u);
}

TEST(HistogramTest, InitialBinContentsAreAccumulatedInto) {
  // INOUT semantics: the coprocessor continues from the host's counts.
  const std::vector<u32> values = {1, 1, 3};
  const std::vector<u32> initial = {10, 20, 30, 40};
  const HistogramRun run =
      RunHistogram(runtime::Epxa1Config(), values, 4, initial);
  EXPECT_EQ(run.bins, (std::vector<u32>{10, 22, 30, 41}));
}

class HistogramStressTest
    : public ::testing::TestWithParam<os::PolicyKind> {};

TEST_P(HistogramStressTest, RmwSurvivesEvictionUnderEveryPolicy) {
  // 8192 bins (32 KB of INOUT data, twice the interface memory) and
  // uniformly random values: bin pages are constantly evicted dirty,
  // written back and reloaded mid-run. Any lost increment fails the
  // exact comparison.
  Rng rng(91);
  std::vector<u32> values(20'000);
  for (u32& v : values) v = static_cast<u32>(rng.Next());

  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.policy = GetParam();
  const HistogramRun run = RunHistogram(config, values, 8192);
  EXPECT_EQ(run.bins, HostHistogram(values, 8192))
      << ToString(GetParam());
  EXPECT_GT(run.report.vim.evictions, 10u);
  EXPECT_GT(run.report.vim.writebacks, 10u);
  // Sum of all bins equals the number of inputs (mass conservation).
  u64 sum = 0;
  for (const u32 bin : run.bins) sum += bin;
  EXPECT_EQ(sum, values.size());
}

INSTANTIATE_TEST_SUITE_P(Policies, HistogramStressTest,
                         ::testing::Values(os::PolicyKind::kFifo,
                                           os::PolicyKind::kLru,
                                           os::PolicyKind::kRandom,
                                           os::PolicyKind::kWsFifo));

TEST(HistogramTest, OverlappedSpeculationDoesNotLoseIncrements) {
  // Background cleaning writes bins pages back *while the core keeps
  // incrementing them* — the cleaned page's dirty bit must re-arm on
  // the next write or increments vanish.
  Rng rng(92);
  std::vector<u32> values(12'000);
  for (u32& v : values) v = static_cast<u32>(rng.Next());

  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kSequential;
  const HistogramRun run = RunHistogram(config, values, 4096);
  EXPECT_EQ(run.bins, HostHistogram(values, 4096));
}

TEST(HistogramTest, SkewedDistributionKeepsHotPageResident) {
  // 99% of values hit one bin page: after the compulsory faults the
  // hot page should stay put (policies must not evict it under LRU).
  Rng rng(93);
  std::vector<u32> values(8'000);
  for (u32& v : values) {
    v = rng.NextBool(0.99) ? static_cast<u32>(rng.NextBelow(64))
                           : static_cast<u32>(rng.Next());
  }
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.policy = os::PolicyKind::kLru;
  const HistogramRun run = RunHistogram(config, values, 8192);
  EXPECT_EQ(run.bins, HostHistogram(values, 8192));
  // Far fewer faults than inputs: the hot page amortises.
  EXPECT_LT(run.report.vim.faults, values.size() / 20);
}

}  // namespace
}  // namespace vcop
