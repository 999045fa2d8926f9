// Differential tests for the host-side engines: under sim::Engine::kFast
// (edge batching, tick coalescing, the IMU translation cache and
// fast-forward) the simulation must be bit-identical — outputs, every
// ExecutionReport field (bench::ReportFields) and the final simulated
// timestamp — to the event-per-edge kReference engine, across every
// workload and platform ablation.
//
// The sweep runs 200 seeded (workload × config) points, staged by
// bench::MakeJob and run by bench::RunFresh, through both engines via
// the parallel fleet runner; the configs deliberately include a
// background-cleaning variant whose queued units land between accesses,
// and posted-write variants whose writes are never eligible at all.
// The paper's Figure 8 / Figure 9 points also pin how much work kFast
// skips.
//
// The same harness has a memory-mode axis for per-object page sizes:
// granule-sized overrides must be bit-identical to the default, and
// 4 KB superpages on every object may change only timing and counters.
// Its policy axis pins the paper fixed point below the goldens' 0.01 ms
// rounding: at the Figure 8 / Figure 9 points and the edge_detect
// image, the default wsfifo replacement decides exactly like FIFO.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "bench/common.h"
#include "hw/tlb.h"
#include "os/kernel.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::App;
using bench::FreshRun;
using bench::MakeJob;
using runtime::Epxa1Config;
using runtime::FpgaSystem;
using sim::Engine;

os::KernelConfig EngineConfig(Engine engine) {
  os::KernelConfig config = Epxa1Config();
  config.engine = engine;
  return config;
}

/// How the per-object page sizes are set for a run.
enum class MemMode {
  kDefault,     // platform page size on every object
  kGranule,     // per-object overrides equal to the frame granule
  kSuperpages,  // 4 KB superpages on every object
};

os::KernelConfig VariantConfig(u64 seed, Engine engine, MemMode mode) {
  os::KernelConfig config = EngineConfig(engine);
  if (mode != MemMode::kDefault) {
    // Granule-sized overrides are span-1 pages: the allocator and RNG
    // draws must be untouched.
    const u32 bytes = mode == MemMode::kGranule ? config.page_bytes : 4096;
    for (u32 id = 0; id + 1 < hw::kMaxObjects; ++id) {
      config.object_page_bytes[id] = bytes;
    }
  }
  switch (seed % 3) {
    case 0:  // plain EPXA1: long hit streaks, maximal fast-forwarding
      break;
    case 1:  // background cleaning: clean units land mid-run
      config.vim.prefetch = os::PrefetchKind::kClean;
      break;
    default:  // posted writes: writes never eligible
      config.imu_posted_writes = true;
      break;
  }
  return config;
}

/// Records a driver run's output and report; every run compared here
/// must succeed under both engines.
template <typename Run>
void RecordRun(const Run& run, FreshRun& out) {
  if (!run.ok()) throw std::runtime_error(run.status().ToString());
  out.output = runtime::AsBytes(std::span(run.value().output));
  out.report = run.value().report;
}

/// Records the final simulated time and the dispatched events, then
/// runs the end-of-run quiescence audit: whatever is still queued must
/// drain as no-ops — no clock domain may tick another edge.
void Finish(FpgaSystem& sys, FreshRun& out) {
  sim::Simulator& sim = sys.kernel().simulator();
  out.sim_now = sim.now();
  out.events = sim.events_dispatched();
  sim.DrainAssertQuiescent();
}

/// Runs workload `seed % 4` (adpcm / IDEA / conv2d / gather) on a fresh
/// system configured by VariantConfig(seed / 4, engine, mode). Every
/// run compared here must succeed under both engines.
FreshRun RunPoint(u64 seed, Engine engine, MemMode mode = MemMode::kDefault) {
  bench::Job job;
  switch (seed % 4) {
    case 0:
      job = MakeJob(App::kAdpcm, 512 + static_cast<u32>(seed % 3) * 512, seed);
      break;
    case 1:
      job = MakeJob(App::kIdea, 1024, seed);
      break;
    case 2:
      job = MakeJob(App::kConv, 32 * 16, seed, /*conv_width=*/32);
      break;
    default:
      // Random permutation gather: data-dependent page hopping, the
      // worst case for hit streaks (and the translation cache).
      job = MakeJob(App::kGather, 512 * 4, seed);
      break;
  }
  FreshRun run = bench::RunFresh(VariantConfig(seed / 4, engine, mode), job);
  if (!run.status.ok()) throw std::runtime_error(run.status.ToString());
  return run;
}

/// Outputs, the final simulated time and every report field
/// (bench::ReportFields) must be equal.
void ExpectBitIdentical(const FreshRun& got, const FreshRun& ref, u64 seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(got.output, ref.output);
  EXPECT_EQ(got.sim_now, ref.sim_now);
  EXPECT_EQ(bench::ReportMismatch(got.report, ref.report), "");
}

constexpr u64 kDiffSeeds = 200;

TEST(FastForwardDiffTest, TwoHundredSeedsAreBitIdenticalAcrossEngines) {
  struct Pair {
    FreshRun fast;
    FreshRun ref;
  };
  // Both engines for each seed run in one fleet task, fanned out over
  // all cores; results land by index, so the comparison order (and any
  // failure message) is deterministic regardless of thread count.
  const std::vector<Pair> pairs = sim::FleetMap<Pair>(
      kDiffSeeds, [](usize i) -> Pair {
        const u64 seed = static_cast<u64>(i) + 1;
        return Pair{RunPoint(seed, Engine::kFast),
                    RunPoint(seed, Engine::kReference)};
      });
  u64 fast_events = 0, ref_events = 0;
  for (usize i = 0; i < pairs.size(); ++i) {
    ExpectBitIdentical(pairs[i].fast, pairs[i].ref, static_cast<u64>(i) + 1);
    fast_events += pairs[i].fast.events;
    ref_events += pairs[i].ref.events;
  }
  // The fast engine must actually engage: across the sweep it
  // eliminates a large share of the dispatched events.
  EXPECT_LT(2 * fast_events, ref_events)
      << "fast=" << fast_events << " reference=" << ref_events;
  RecordProperty("fast_events", static_cast<int>(fast_events));
  RecordProperty("reference_events", static_cast<int>(ref_events));
}

TEST(TlbDiffTest, FlexibleMemoryOffIsBitIdenticalAndOnIsOutputIdentical) {
  struct ModeRuns {
    FreshRun base;
    FreshRun granule;
    FreshRun superpages;
  };
  const std::vector<ModeRuns> runs = sim::FleetMap<ModeRuns>(
      128, [](usize i) -> ModeRuns {
        const u64 seed = static_cast<u64>(i) + 1;
        return ModeRuns{RunPoint(seed, Engine::kFast),
                        RunPoint(seed, Engine::kFast, MemMode::kGranule),
                        RunPoint(seed, Engine::kFast, MemMode::kSuperpages)};
      });
  u64 base_faults = 0, superpage_faults = 0;
  for (usize i = 0; i < runs.size(); ++i) {
    const u64 seed = static_cast<u64>(i) + 1;
    // The granule spelling is the default down to every timestamp and
    // counter; superpages may move only timing and counters.
    ExpectBitIdentical(runs[i].granule, runs[i].base, seed);
    EXPECT_EQ(runs[i].superpages.output, runs[i].base.output)
        << "seed " << seed;
    base_faults += runs[i].base.report.vim.faults;
    superpage_faults += runs[i].superpages.report.vim.faults;
  }
  // Superpages must actually engage: each fault maps twice the bytes.
  EXPECT_LT(superpage_faults, base_faults);
  RecordProperty("base_faults", static_cast<int>(base_faults));
  RecordProperty("superpage_faults", static_cast<int>(superpage_faults));
}

TEST(FastForwardDiffTest, FaultPlansStayReplayableUnderFastForward) {
  // An armed plan must inject at the exact same opportunities under both
  // engines (the opportunity streams are ordered identically).
  for (const u64 seed : {3ull, 7ull, 11ull}) {
    for (u64 workload = 0; workload < 4; ++workload) {
      FaultPlan plan_fast;
      plan_fast.At(FaultSite::kTlbParity, 1);
      plan_fast.At(FaultSite::kAhbRetry, 2);
      // CP-port sites do not veto the tier: TranslateAt replays their
      // draws at the analytic time, so a stall must land identically.
      plan_fast.WithProbability(FaultSite::kCpStall, 0.02);
      FaultPlan plan_ref = plan_fast;

      const bench::Job job = MakeJob(App::kAdpcm, 512, seed + workload);
      const FreshRun fast =
          bench::RunFresh(EngineConfig(Engine::kFast), job, &plan_fast);
      const FreshRun ref =
          bench::RunFresh(EngineConfig(Engine::kReference), job, &plan_ref);
      ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
      ExpectBitIdentical(fast, ref, seed * 10 + workload);
      for (usize s = 0; s < kNumFaultSites; ++s) {
        const FaultSite site = static_cast<FaultSite>(s);
        EXPECT_EQ(plan_fast.stats(site).opportunities,
                  plan_ref.stats(site).opportunities)
            << FaultSiteName(site);
        EXPECT_EQ(plan_fast.stats(site).injected, plan_ref.stats(site).injected)
            << FaultSiteName(site);
      }
    }
  }
}

TEST(FastForwardDiffTest, RandomFaultPlansAreBitIdenticalAcrossEngines) {
  // The torture generator arms arbitrary site mixes — including the
  // CP-port hang/stall sites and plans that abort the run. Whatever the
  // outcome, both engines must tell exactly the same story: status,
  // bytes, final simulated time, and every per-site opportunity and
  // injection count.
  struct FaultRun {
    ErrorCode code = ErrorCode::kOk;
    std::vector<u8> output;
    Picoseconds sim_now = 0;
    u64 injected = 0;
    std::array<u64, 2 * kNumFaultSites> site_counts{};
  };
  auto run_one = [](u64 seed, Engine engine) -> FaultRun {
    FaultPlan plan = FaultPlan::Random(seed);
    const FreshRun run = bench::RunFresh(
        EngineConfig(engine), MakeJob(App::kAdpcm, 1024, seed), &plan);
    FaultRun out;
    out.code = run.status.code();
    out.output = run.output;
    out.sim_now = run.sim_now;
    out.injected = plan.total_injected();
    for (usize s = 0; s < kNumFaultSites; ++s) {
      out.site_counts[2 * s] = plan.stats(static_cast<FaultSite>(s)).opportunities;
      out.site_counts[2 * s + 1] = plan.stats(static_cast<FaultSite>(s)).injected;
    }
    return out;
  };
  struct FaultPair {
    FaultRun fast;
    FaultRun ref;
  };
  const std::vector<FaultPair> pairs = sim::FleetMap<FaultPair>(
      64, [&](usize i) -> FaultPair {
        const u64 seed = static_cast<u64>(i) + 1;
        return FaultPair{run_one(seed, Engine::kFast),
                         run_one(seed, Engine::kReference)};
      });
  for (usize i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(i + 1));
    EXPECT_EQ(pairs[i].fast.code, pairs[i].ref.code);
    EXPECT_EQ(pairs[i].fast.output, pairs[i].ref.output);
    EXPECT_EQ(pairs[i].fast.sim_now, pairs[i].ref.sim_now);
    EXPECT_EQ(pairs[i].fast.injected, pairs[i].ref.injected);
    EXPECT_EQ(pairs[i].fast.site_counts, pairs[i].ref.site_counts);
  }
}

// ----- the paper's Figure 8 / Figure 9 points -----

constexpr u64 kPaperInputSeed = 20040216;

/// Runs one paper workload point on a fresh system under `engine` and
/// replacement `policy`.
template <typename RunFn>
FreshRun RunPaperPoint(Engine engine, const RunFn& run,
                       os::PolicyKind policy = os::VimConfig{}.policy) {
  os::KernelConfig config = EngineConfig(engine);
  config.vim.policy = policy;
  FpgaSystem sys(config);
  FreshRun out;
  RecordRun(run(sys), out);
  Finish(sys, out);
  return out;
}

/// Bit-identical results from at least 50x fewer events. Batching and
/// coalescing alone reach only 4-7x on these points, so the floor also
/// pins that kFast includes fast-forward.
void ExpectPaperPointEquivalent(const FreshRun& fast,
                                const FreshRun& ref) {
  ExpectBitIdentical(fast, ref, kPaperInputSeed);
  EXPECT_GE(ref.events, 50 * fast.events)
      << "reference=" << ref.events << " fast=" << fast.events;
}

/// The policy axis: the same point under wsfifo and under FIFO.
template <typename RunFn>
void ExpectWsFifoMatchesFifo(const RunFn& run) {
  ExpectBitIdentical(
      RunPaperPoint(Engine::kFast, run, os::PolicyKind::kWsFifo),
      RunPaperPoint(Engine::kFast, run, os::PolicyKind::kFifo),
      kPaperInputSeed);
}

class AdpcmEquivalenceTest : public ::testing::TestWithParam<usize> {};

TEST_P(AdpcmEquivalenceTest, FastEngineMatchesReferenceBitForBit) {
  const std::vector<u8> input =
      apps::MakeRandomBytes(GetParam(), kPaperInputSeed);
  auto run = [&](FpgaSystem& sys) { return runtime::RunAdpcmVim(sys, input); };
  ExpectPaperPointEquivalent(RunPaperPoint(Engine::kFast, run),
                             RunPaperPoint(Engine::kReference, run));
}

TEST_P(AdpcmEquivalenceTest, WsFifoMatchesFifoBitForBit) {
  const std::vector<u8> input =
      apps::MakeRandomBytes(GetParam(), kPaperInputSeed);
  ExpectWsFifoMatchesFifo(
      [&](FpgaSystem& sys) { return runtime::RunAdpcmVim(sys, input); });
}

INSTANTIATE_TEST_SUITE_P(Figure8Sizes, AdpcmEquivalenceTest,
                         ::testing::Values(2048, 4096, 8192));

class IdeaEquivalenceTest : public ::testing::TestWithParam<usize> {};

TEST_P(IdeaEquivalenceTest, FastEngineMatchesReferenceBitForBit) {
  const apps::IdeaSubkeys keys = apps::IdeaExpandKey(apps::MakeIdeaKey(16));
  const std::vector<u8> input =
      apps::MakeRandomBytes(GetParam(), kPaperInputSeed);
  auto run = [&](FpgaSystem& sys) {
    return runtime::RunIdeaVim(sys, keys, input);
  };
  ExpectPaperPointEquivalent(RunPaperPoint(Engine::kFast, run),
                             RunPaperPoint(Engine::kReference, run));
}

TEST_P(IdeaEquivalenceTest, WsFifoMatchesFifoBitForBit) {
  const apps::IdeaSubkeys keys = apps::IdeaExpandKey(apps::MakeIdeaKey(16));
  const std::vector<u8> input =
      apps::MakeRandomBytes(GetParam(), kPaperInputSeed);
  ExpectWsFifoMatchesFifo([&](FpgaSystem& sys) {
    return runtime::RunIdeaVim(sys, keys, input);
  });
}

INSTANTIATE_TEST_SUITE_P(Figure9Sizes, IdeaEquivalenceTest,
                         ::testing::Values(4096, 8192, 16384, 32768));

TEST(EdgeDetectEquivalenceTest, WsFifoMatchesFifoBitForBit) {
  // examples/edge_detect: Sobel-x over its 128x96 test image.
  constexpr u32 kWidth = 128, kHeight = 96;
  const std::vector<u8> image = apps::MakeTestImage(kWidth, kHeight, 2026);
  ExpectWsFifoMatchesFifo([&](FpgaSystem& sys) {
    return runtime::RunConv3x3Vim(sys, image, kWidth, kHeight,
                                  apps::SobelXKernel(), /*shift=*/0);
  });
}

// ----- the fleet runner itself -----

TEST(FleetRunnerTest, ResultsLandByIndexRegardlessOfThreadCount) {
  auto square = [](usize i) { return static_cast<u64>(i) * i; };
  const std::vector<u64> ref = sim::FleetMap<u64>(257, square, /*threads=*/1);
  for (const u32 threads : {2u, 3u, 8u, 16u}) {
    const std::vector<u64> got = sim::FleetMap<u64>(257, square, threads);
    EXPECT_EQ(got, ref) << threads << " threads";
  }
}

TEST(FleetRunnerTest, FirstExceptionIsRethrownInTheCaller) {
  std::atomic<u32> ran{0};
  EXPECT_THROW(
      sim::RunFleet(
          64,
          [&](usize i) {
            ran.fetch_add(1);
            if (i == 5) throw std::runtime_error("task 5 failed");
          },
          /*threads=*/4),
      std::runtime_error);
  // Workers stop claiming after the failure; not every index ran.
  EXPECT_GE(ran.load(), 1u);
}

TEST(FleetRunnerTest, ZeroAndOneCountsRunInline) {
  u32 hits = 0;
  sim::RunFleet(0, [&](usize) { ++hits; }, 8);
  EXPECT_EQ(hits, 0u);
  sim::RunFleet(1, [&](usize) { ++hits; }, 8);
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace vcop
