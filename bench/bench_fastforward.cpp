// Headline bench for the fast engine, fast-forward included (DESIGN.md
// §11), and the parallel fleet runner. Writes BENCH_fastforward.json.
//
// Two sweeps, each run three ways — the event-per-edge reference engine
// on one thread, the fast engine on one thread, the fast engine over the
// fleet:
//
//   torture  N randomized FaultPlans (FF_PLANS, default 1000) over the
//            four reference workloads: the seeded fault-plan grid that
//            torture_test and bench_faults run too (bench/common.h,
//            RunGrid). Fault injection exercises fast-forward's
//            fallback edges on roughly every other seed.
//   conv2d   a shape × background-work grid (sharpen kernel, prefetch
//            none and clean): long TLB-hit streaks, fast-forward's best
//            case.
//
// Gates cover only *deterministic* properties:
//   - bit-identity: an order-independent digest of every run's status,
//     output bytes, final simulated time and full ExecutionReport must
//     match across all three modes;
//   - event reduction: the fast engine must dispatch at most 1/2
//     (torture) resp. 1/4 (conv2d) of the reference engine's events;
//   - artifact identity: the Figure-7 VCD and the conv2d Chrome-trace
//     timeline must be byte-identical under both engines. An attached
//     tracer vetoes the IMU's fast-forward by construction (DESIGN.md
//     §11); the timeline does not, so every recorded fault-service and
//     transfer span must carry the exact same simulated timestamps
//     under analytic jumps.
// Wall times, their speedups and the host nanoseconds per IMU access go
// to the JSON's "host" block with the thread counts and repeats: they
// depend on the host and are reported, not gated. Each mode runs its
// sweep once, which every gate needs; FF_REPEATS=N times N more passes:
// wall_ms is then the best repeat, and ns per access is given as the
// median, min and max over every pass.
#include "base/log.h"
#include "bench/common.h"
#include "os/vim.h"

namespace vcop {
namespace {

using sim::Engine;

struct RunResult {
  u64 digest = 0;
  u64 events = 0;
  u64 accesses = 0;
};

/// A run's digest over what it *computes* (as opposed to what the host
/// *spends*: event counts, whose reduction is the fast engine's whole
/// point): its status, output bytes, full ExecutionReport
/// (os::FieldsOf), simulated end time and, given a plan, the plan's
/// per-site counters.
RunResult Summarize(const bench::FreshRun& run, const FaultPlan* plan) {
  bench::Digest d;
  d.Mix(run.status.ok() ? 1 : 0);
  if (run.status.ok()) {
    d.MixBytes(run.output);
    for (const Field& field : os::FieldsOf(run.report)) d.Mix(field.value);
  } else {
    const std::string status = run.status.ToString();
    d.MixBytes(std::span<const u8>(
        reinterpret_cast<const u8*>(status.data()), status.size()));
  }
  d.Mix(static_cast<u64>(run.sim_now));
  if (plan != nullptr) {
    d.Mix(plan->total_injected());
    for (usize s = 0; s < kNumFaultSites; ++s) {
      const FaultSiteStats& st = plan->stats(static_cast<FaultSite>(s));
      d.Mix(st.opportunities);
      d.Mix(st.injected);
    }
  }
  return RunResult{d.value(), run.events, run.imu_accesses};
}

os::KernelConfig EngineConfig(Engine engine) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.engine = engine;
  return config;
}

// ----- the sweeps -----

RunResult TorturePoint(usize index, Engine engine) {
  const u64 seed = static_cast<u64>(index) + 1;
  FaultPlan plan = FaultPlan::Random(seed);
  return Summarize(bench::RunGrid(seed, EngineConfig(engine), &plan), &plan);
}

constexpr os::PrefetchKind kKinds[] = {os::PrefetchKind::kNone,
                                       os::PrefetchKind::kClean};
constexpr struct {
  u32 width;
  u32 height;
} kShapes[] = {{256, 24}, {512, 24}, {1024, 24}, {2048, 24}};
constexpr usize kConvPoints = std::size(kShapes) * std::size(kKinds);

RunResult ConvPoint(usize index, Engine engine) {
  const auto shape = kShapes[index / std::size(kKinds)];
  os::KernelConfig config = EngineConfig(engine);
  config.vim.prefetch = kKinds[index % std::size(kKinds)];
  const std::vector<u8> image =
      apps::MakeTestImage(shape.width, shape.height, 11);
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, shape.width, shape.height, apps::SharpenKernel(),
                    0, expect);
  const bench::Job job{runtime::Conv3x3Job(image, shape.width, shape.height,
                                           apps::SharpenKernel(), 0),
                       bench::App::kConv, static_cast<u32>(image.size()),
                       std::move(expect)};
  const bench::FreshRun run = bench::RunFresh(config, job);
  VCOP_CHECK_MSG(run.status.ok(), run.status.ToString());
  VCOP_CHECK_MSG(run.exact, "conv2d output mismatch");
  return Summarize(run, nullptr);
}

/// Runs a sweep of `runs` points under each of the three modes, each
/// mode 1 + `repeats` times: the events and the bit-identity go to the
/// row's values, the wall times and ns per IMU access to its host ones.
void RunSweep(usize runs, int repeats, RunResult (*point)(usize, Engine),
              bench::Values& v) {
  constexpr struct {
    const char* name;
    Engine engine;
    u32 threads;  // 0: the fleet's
  } kModes[] = {{"reference", Engine::kReference, 1},
                {"fast", Engine::kFast, 1},
                {"fast_fleet", Engine::kFast, 0}};
  v.Count("runs", runs);
  u64 digest[3] = {}, events[3] = {};
  double best_ms[3] = {};
  for (usize m = 0; m < 3; ++m) {
    std::vector<double> ms;  // every pass, the warm-up first
    u64 accesses = 0;
    for (int pass = 0; pass <= repeats; ++pass) {
      bench::WallTimer timer;
      const std::vector<RunResult> results = sim::FleetMap<RunResult>(
          runs, [&](usize i) { return point(i, kModes[m].engine); },
          kModes[m].threads);
      ms.push_back(timer.ElapsedMs());
      // Results land by index, so this fold is deterministic for any
      // thread count.
      bench::Digest d;
      events[m] = accesses = 0;
      for (const RunResult& r : results) {
        d.Mix(r.digest);
        events[m] += r.events;
        accesses += r.accesses;
      }
      digest[m] = d.value();
    }
    best_ms[m] = repeats > 0 ? *std::min_element(ms.begin() + 1, ms.end())
                             : ms[0];
    std::vector<double> ns;
    for (const double pass_ms : ms) {
      ns.push_back(accesses > 0 ? pass_ms * 1e6 / static_cast<double>(accesses)
                                : 0.0);
    }
    std::sort(ns.begin(), ns.end());
    const usize n = ns.size();
    const std::string p = std::string(kModes[m].name) + ".";
    v.Count(p + "events", events[m])
        .Host(p + "threads", sim::FleetThreadCount(kModes[m].threads), 0)
        .Host(p + "repeats", repeats, 0)
        .Host(p + "wall_ms", best_ms[m], 3)
        .Host(p + "warmup_ms", ms[0], 3)
        .Host(p + "ns_per_access.median", (ns[(n - 1) / 2] + ns[n / 2]) / 2, 1)
        .Host(p + "ns_per_access.min", ns.front(), 1)
        .Host(p + "ns_per_access.max", ns.back(), 1);
  }
  v.Flag("bit_identical", digest[0] == digest[1] && digest[0] == digest[2])
      .Real("event_reduction",
            events[1] == 0 ? 0.0
                           : static_cast<double>(events[0]) /
                                 static_cast<double>(events[1]),
            2)
      .Host("wall_speedup_1thread",
            best_ms[1] > 0.0 ? best_ms[0] / best_ms[1] : 0.0, 2)
      .Host("wall_speedup_fleet",
            best_ms[2] > 0.0 ? best_ms[0] / best_ms[2] : 0.0, 2);
}

int Main() {
  // Hung-coprocessor plans are an expected slice of the torture grid;
  // their per-run VIM abort warnings would drown the table. Configured
  // up front, before any fleet runs (the Logger contract in base/log.h).
  Logger::Get().set_min_level(LogLevel::kError);
  const u32 plans = bench::EnvCount("FF_PLANS", 1000, 1);
  const int repeats = static_cast<int>(bench::EnvCount("FF_REPEATS", 0, 0));
  bench::Bench bench("fastforward");
  // One row at a time: each times its own modes.
  bench.Run({{"torture",
              [&](bench::Values& v) {
                RunSweep(plans, repeats, TorturePoint, v);
              }},
             {"conv2d",
              [&](bench::Values& v) {
                RunSweep(kConvPoints, repeats, ConvPoint, v);
              }},
             {"artifacts",
              [](bench::Values& v) {
                const os::KernelConfig fast = EngineConfig(Engine::kFast);
                const os::KernelConfig ref = EngineConfig(Engine::kReference);
                v.Flag("fig7_vcd_identical",
                       bench::Fig7Vcd(fast) == bench::Fig7Vcd(ref))
                    .Flag("timeline_trace_identical",
                          bench::ConvChromeTrace(fast) ==
                              bench::ConvChromeTrace(ref));
              }}},
            1);
  using bench::Cmp;
  return bench.Finish({
      {"", "bit_identical", Cmp::kEq, 1},
      {"torture", "event_reduction", Cmp::kGe, 2},
      {"conv2d", "event_reduction", Cmp::kGe, 4},
      {"artifacts", "fig7_vcd_identical", Cmp::kEq, 1},
      {"artifacts", "timeline_trace_identical", Cmp::kEq, 1},
  });
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
