// Differential tests for the host-side engines: under sim::Engine::kFast
// (edge batching, tick coalescing, the IMU translation cache and
// fast-forward) the simulation must be bit-identical — outputs, the
// full ExecutionReport (VimAccounting, ImuStats, TlbStats) and the
// final simulated timestamp — to the event-per-edge kReference engine,
// across every workload and platform ablation.
//
// The sweep runs 200 seeded (workload × config) points through both
// engines via the parallel fleet runner; the configs deliberately
// include adaptive-prefetch and overlapped-prefetch variants whose
// fault-time machinery forces fast-forward onto its fallback edges,
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
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "hw/tlb.h"
#include "os/kernel.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

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
    // Granule-sized overrides are span-1 pages: the allocator,
    // prefetcher and RNG draws must be untouched.
    const u32 bytes = mode == MemMode::kGranule ? config.page_bytes : 4096;
    for (u32 id = 0; id + 1 < hw::kMaxObjects; ++id) {
      config.object_page_bytes[id] = bytes;
    }
  }
  switch (seed % 4) {
    case 0:  // plain EPXA1: long hit streaks, maximal fast-forwarding
      break;
    case 1:  // adaptive prefetch: fault-heavy fallback edges
      config.vim.prefetch = os::PrefetchKind::kAdaptive;
      config.vim.prefetch_depth = 2;
      break;
    case 2:  // overlapped prefetch: the VIM's in-flight transfers veto
             // the tier through its OS gate
      config.vim.prefetch = os::PrefetchKind::kSequential;
      config.vim.overlap_prefetch = true;
      break;
    default:  // posted writes + bounds check: writes never eligible
      config.imu_posted_writes = true;
      config.imu_bounds_check = true;
      break;
  }
  return config;
}

struct DiffOutcome {
  std::vector<u8> output;
  os::ExecutionReport report;
  Picoseconds sim_now = 0;
  u64 events = 0;
};

template <typename T>
std::vector<u8> AsBytes(const std::vector<T>& v) {
  std::vector<u8> bytes(v.size() * sizeof(T));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// Records a driver run's output and report; every run compared here
/// must succeed under both engines.
template <typename Run>
void RecordRun(const Run& run, DiffOutcome& out) {
  if (!run.ok()) throw std::runtime_error(run.status().ToString());
  out.output = AsBytes(run.value().output);
  out.report = run.value().report;
}

/// Records the final simulated time and the dispatched events, then
/// runs the end-of-run quiescence audit: whatever is still queued must
/// drain as no-ops — no clock domain may tick another edge.
void Finish(FpgaSystem& sys, DiffOutcome& out) {
  sim::Simulator& sim = sys.kernel().simulator();
  out.sim_now = sim.now();
  out.events = sim.events_dispatched();
  sim.DrainAssertQuiescent();
}

/// Runs workload `seed % 4` (adpcm / IDEA / conv2d / gather) on a fresh
/// system configured by VariantConfig(seed / 4, engine, mode).
DiffOutcome RunPoint(u64 seed, Engine engine,
                     MemMode mode = MemMode::kDefault) {
  FpgaSystem sys(VariantConfig(seed / 4, engine, mode));
  DiffOutcome out;
  switch (seed % 4) {
    case 0:
      RecordRun(runtime::RunAdpcmVim(
                    sys, apps::MakeAdpcmStream(512 + (seed % 3) * 512, seed)),
                out);
      break;
    case 1: {
      const apps::IdeaSubkeys subkeys =
          apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
      RecordRun(
          runtime::RunIdeaVim(sys, subkeys, apps::MakeRandomBytes(1024, seed)),
          out);
      break;
    }
    case 2: {
      const u32 width = 32, height = 16;
      const std::vector<u8> image = apps::MakeTestImage(width, height, seed);
      RecordRun(runtime::RunConv3x3Vim(sys, image, width, height,
                                       apps::BoxBlurKernel(), /*shift=*/3),
                out);
      break;
    }
    default: {
      // Random permutation gather: data-dependent page hopping, the
      // worst case for hit streaks (and the translation cache).
      std::vector<u32> in(512), perm(512);
      Rng rng(seed);
      for (u32 i = 0; i < 512; ++i) {
        in[i] = static_cast<u32>(seed) * 2654435761u + i;
        perm[i] = static_cast<u32>(rng.NextInRange(0, 511));
      }
      RecordRun(runtime::RunGatherVim(sys, in, perm), out);
      break;
    }
  }
  Finish(sys, out);
  return out;
}

void ExpectBitIdentical(const DiffOutcome& got, const DiffOutcome& ref,
                        u64 seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(got.output, ref.output);
  EXPECT_EQ(got.sim_now, ref.sim_now);
  const os::ExecutionReport& a = got.report;
  const os::ExecutionReport& b = ref.report;
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.t_hw, b.t_hw);
  EXPECT_EQ(a.t_dp, b.t_dp);
  EXPECT_EQ(a.t_imu, b.t_imu);
  EXPECT_EQ(a.t_invoke, b.t_invoke);
  EXPECT_EQ(a.cp_cycles, b.cp_cycles);
  EXPECT_EQ(a.tlb.lookups, b.tlb.lookups);
  EXPECT_EQ(a.tlb.hits, b.tlb.hits);
  EXPECT_EQ(a.tlb.misses, b.tlb.misses);
  EXPECT_EQ(a.tlb.parity_errors, b.tlb.parity_errors);
  EXPECT_EQ(a.tlb.installs, b.tlb.installs);
  EXPECT_EQ(a.imu.accesses, b.imu.accesses);
  EXPECT_EQ(a.imu.reads, b.imu.reads);
  EXPECT_EQ(a.imu.writes, b.imu.writes);
  EXPECT_EQ(a.imu.faults, b.imu.faults);
  EXPECT_EQ(a.imu.fault_stall_time, b.imu.fault_stall_time);
  EXPECT_EQ(a.imu.access_latency_time, b.imu.access_latency_time);
  EXPECT_EQ(a.vim.t_dp, b.vim.t_dp);
  EXPECT_EQ(a.vim.t_imu, b.vim.t_imu);
  EXPECT_EQ(a.vim.t_wakeup, b.vim.t_wakeup);
  EXPECT_EQ(a.vim.faults, b.vim.faults);
  EXPECT_EQ(a.vim.tlb_refills, b.vim.tlb_refills);
  EXPECT_EQ(a.vim.evictions, b.vim.evictions);
  EXPECT_EQ(a.vim.writebacks, b.vim.writebacks);
  EXPECT_EQ(a.vim.loads, b.vim.loads);
  EXPECT_EQ(a.vim.kernel_copy_loads, b.vim.kernel_copy_loads);
  EXPECT_EQ(a.vim.prefetched_pages, b.vim.prefetched_pages);
  EXPECT_EQ(a.vim.cleaned_pages, b.vim.cleaned_pages);
  EXPECT_EQ(a.vim.bytes_loaded, b.vim.bytes_loaded);
  EXPECT_EQ(a.vim.bytes_written_back, b.vim.bytes_written_back);
  EXPECT_EQ(a.vim.t_dp_overlapped, b.vim.t_dp_overlapped);
  EXPECT_EQ(a.vim.t_dp_wait, b.vim.t_dp_wait);
  EXPECT_EQ(a.vim.dirty_in_pages_dropped, b.vim.dirty_in_pages_dropped);
  EXPECT_EQ(a.vim.preemptions, b.vim.preemptions);
  EXPECT_EQ(a.vim.fault_recoveries, b.vim.fault_recoveries);
  EXPECT_EQ(a.vim.prefetch_useful, b.vim.prefetch_useful);
  EXPECT_EQ(a.vim.prefetch_wasted, b.vim.prefetch_wasted);
  EXPECT_EQ(a.vim.prefetch_suggestions_dropped,
            b.vim.prefetch_suggestions_dropped);
  EXPECT_EQ(a.vim.fault_service_us.count(), b.vim.fault_service_us.count());
  EXPECT_EQ(a.vim.fault_service_us.sum(), b.vim.fault_service_us.sum());
  EXPECT_EQ(a.vim.fault_service_us.min(), b.vim.fault_service_us.min());
  EXPECT_EQ(a.vim.fault_service_us.max(), b.vim.fault_service_us.max());
}

constexpr u64 kDiffSeeds = 200;

TEST(FastForwardDiffTest, TwoHundredSeedsAreBitIdenticalAcrossEngines) {
  struct Pair {
    DiffOutcome fast;
    DiffOutcome ref;
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
    DiffOutcome base;
    DiffOutcome granule;
    DiffOutcome superpages;
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
  // An armed plan on non-CP sites must inject at the exact same
  // opportunities under both engines (the opportunity streams are
  // ordered identically), and the CP-port sites veto the tier outright.
  for (const u64 seed : {3ull, 7ull, 11ull}) {
    for (u64 workload = 0; workload < 4; ++workload) {
      FaultPlan plan_fast;
      plan_fast.At(FaultSite::kTlbParity, 1);
      plan_fast.At(FaultSite::kAhbRetry, 2);
      // CP-port sites do not veto the tier: TranslateAt replays their
      // draws at the analytic time, so a stall must land identically.
      plan_fast.WithProbability(FaultSite::kCpStall, 0.02);
      FaultPlan plan_ref = plan_fast;

      auto run = [&](Engine engine, FaultPlan* plan) -> DiffOutcome {
        FpgaSystem sys(EngineConfig(engine));
        sys.kernel().InstallFaultPlan(plan);
        DiffOutcome out;
        RecordRun(runtime::RunAdpcmVim(
                      sys, apps::MakeAdpcmStream(512, seed + workload)),
                  out);
        out.sim_now = sys.kernel().simulator().now();
        return out;
      };
      const DiffOutcome fast = run(Engine::kFast, &plan_fast);
      const DiffOutcome ref = run(Engine::kReference, &plan_ref);
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
    FpgaSystem sys(EngineConfig(engine));
    FaultPlan plan = FaultPlan::Random(seed);
    sys.kernel().InstallFaultPlan(&plan);
    FaultRun out;
    const std::vector<u8> input = apps::MakeAdpcmStream(1024, seed);
    auto r = runtime::RunAdpcmVim(sys, input);
    out.code = r.status().code();
    if (r.ok()) out.output = AsBytes(r.value().output);
    out.sim_now = sys.kernel().simulator().now();
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
DiffOutcome RunPaperPoint(Engine engine, const RunFn& run,
                          os::PolicyKind policy = os::VimConfig{}.policy) {
  os::KernelConfig config = EngineConfig(engine);
  config.vim.policy = policy;
  FpgaSystem sys(config);
  DiffOutcome out;
  RecordRun(run(sys), out);
  Finish(sys, out);
  return out;
}

/// Bit-identical results from at least 50x fewer events. Batching and
/// coalescing alone reach only 4-7x on these points, so the floor also
/// pins that kFast includes fast-forward.
void ExpectPaperPointEquivalent(const DiffOutcome& fast,
                                const DiffOutcome& ref) {
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
