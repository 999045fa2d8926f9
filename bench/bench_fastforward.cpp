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
//   conv2d   the prefetch bench's shape × strategy grid (sharpen
//            kernel, overlapped transfers): long TLB-hit streaks,
//            fast-forward's best case.
//
// Exit-code gates cover only *deterministic* properties:
//   - bit-identity: an order-independent digest of every run's status,
//     output bytes, final simulated time and full ExecutionReport must
//     match across all three modes;
//   - event reduction: the fast engine must dispatch at most 1/2
//     (torture) resp. 1/4 (conv2d) of the reference engine's events;
//   - artifact identity: the Figure-7 VCD and the conv2d Chrome-trace
//     timeline must be byte-identical under both engines.
// Wall-clock speedups are printed and recorded in the JSON's "host"
// block with the thread counts, repeats and hardware concurrency, but
// they depend on the host and are reported, not gated. Each mode runs
// its sweep once, which every gate needs; FF_REPEATS=N times N more
// passes and reports the best, for wall times worth comparing.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/conv2d.h"
#include "base/fault.h"
#include "base/log.h"
#include "bench/common.h"
#include "os/vim.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::MeasureWall;
using bench::WallMeasurement;
using runtime::Epxa1Config;
using runtime::FpgaSystem;
using sim::Engine;

/// The count in environment variable `name` if it is at least `min`,
/// else `fallback`.
u32 EnvCount(const char* name, u32 fallback, u32 min) {
  if (const char* env = std::getenv(name)) {
    const long n = std::atol(env);
    if (n >= static_cast<long>(min)) return static_cast<u32>(n);
  }
  return fallback;
}

// ----- run digests -----

/// FNV-1a over everything a simulation run *computes* (as opposed to
/// what the host *spends*): status, output bytes, simulated end time,
/// the full ExecutionReport, and the fault plan's per-site counters.
/// Host-side event counts are deliberately excluded — reducing them is
/// the fast engine's whole point.
class Digest {
 public:
  void Mix(u64 v) {
    for (int i = 0; i < 8; ++i) MixByte(static_cast<u8>(v >> (8 * i)));
  }
  void MixBytes(std::span<const u8> bytes) {
    for (u8 b : bytes) MixByte(b);
  }
  u64 value() const { return h_; }

 private:
  void MixByte(u8 b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  u64 h_ = 1469598103934665603ull;
};

void MixReport(Digest& d, const os::ExecutionReport& r) {
  for (const bench::ReportField& field : bench::ReportFields(r)) {
    d.Mix(field.value);
  }
}

struct RunResult {
  u64 digest = 0;
  u64 events = 0;
};

// ----- sweep A: the torture grid -----

os::KernelConfig EngineConfig(Engine engine) {
  os::KernelConfig config = Epxa1Config();
  config.engine = engine;
  return config;
}

RunResult TortureRunPoint(u64 seed, Engine engine) {
  FaultPlan plan = FaultPlan::Random(seed);
  const bench::FreshRun run =
      bench::RunGrid(seed, EngineConfig(engine), &plan);
  Digest d;
  d.Mix(run.status.ok() ? 1 : 0);
  if (run.status.ok()) {
    d.MixBytes(run.output);
    MixReport(d, run.report);
  } else {
    const std::string status = run.status.ToString();
    d.MixBytes(std::span<const u8>(
        reinterpret_cast<const u8*>(status.data()), status.size()));
  }
  d.Mix(static_cast<u64>(run.sim_now));
  d.Mix(plan.total_injected());
  for (usize s = 0; s < kNumFaultSites; ++s) {
    const FaultSiteStats& st = plan.stats(static_cast<FaultSite>(s));
    d.Mix(st.opportunities);
    d.Mix(st.injected);
  }
  return RunResult{d.value(), run.events};
}

// ----- sweep B: the conv2d prefetch grid -----

constexpr os::PrefetchKind kKinds[] = {os::PrefetchKind::kClean,
                                       os::PrefetchKind::kSequential,
                                       os::PrefetchKind::kAdaptive};
constexpr struct {
  u32 width;
  u32 height;
} kShapes[] = {{256, 24}, {512, 24}, {1024, 24}, {2048, 24}};
constexpr usize kConvPoints = std::size(kShapes) * std::size(kKinds);

RunResult ConvRunPoint(usize index, Engine engine) {
  const auto shape = kShapes[index / std::size(kKinds)];
  os::KernelConfig config = EngineConfig(engine);
  config.vim.prefetch = kKinds[index % std::size(kKinds)];
  config.vim.prefetch_depth = 2;
  FpgaSystem sys(config);

  const std::vector<u8> image =
      apps::MakeTestImage(shape.width, shape.height, 11);
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, shape.width, shape.height, apps::SharpenKernel(),
                    0, expect);
  const auto run = runtime::RunConv3x3Vim(sys, image, shape.width,
                                          shape.height, apps::SharpenKernel(),
                                          0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  VCOP_CHECK_MSG(run.value().output == expect, "conv2d output mismatch");

  Digest d;
  d.MixBytes(run.value().output);
  MixReport(d, run.value().report);
  d.Mix(static_cast<u64>(sys.kernel().simulator().now()));
  sys.kernel().simulator().DrainAssertQuiescent();
  return RunResult{d.value(), sys.kernel().simulator().events_dispatched()};
}

// ----- mode runner -----

struct ModeRow {
  std::string name;
  u32 threads = 1;
  WallMeasurement wall;
  u64 events = 0;
  u64 digest = 0;
};

template <typename PointFn>
ModeRow RunMode(const char* name, usize count, Engine engine, u32 threads,
                int repeats, PointFn&& point) {
  ModeRow row;
  row.name = name;
  row.threads = sim::FleetThreadCount(threads);
  auto pass = [&] {
    const std::vector<RunResult> results = sim::FleetMap<RunResult>(
        count, [&](usize i) { return point(i, engine); }, threads);
    // Order-independent only across *identical orderings*: results land
    // by index, so this fold is deterministic for any thread count.
    Digest d;
    u64 events = 0;
    for (const RunResult& r : results) {
      d.Mix(r.digest);
      events += r.events;
    }
    row.digest = d.value();
    row.events = events;
  };
  row.wall = MeasureWall(repeats, pass);
  std::printf("  %-22s threads=%-2u wall %8.1f ms  (warm-up %8.1f ms)  "
              "events %12llu\n",
              name, row.threads, row.wall.best_ms, row.wall.warmup_ms,
              static_cast<unsigned long long>(row.events));
  return row;
}

struct Sweep {
  std::string name;
  usize runs = 0;
  std::vector<ModeRow> modes;  // [0]=reference 1t, [1]=fast 1t, [2]=fast fleet
  bool bit_identical() const {
    return modes[0].digest == modes[1].digest &&
           modes[0].digest == modes[2].digest;
  }
  double event_reduction() const {
    return modes[1].events == 0
               ? 0.0
               : static_cast<double>(modes[0].events) /
                     static_cast<double>(modes[1].events);
  }
};

// ----- artifact identity -----

/// The Figure-7 waveform and the conv2d Chrome trace must come out
/// byte-identical under both engines. An attached tracer vetoes the
/// IMU's fast-forward by construction (DESIGN.md §11); the timeline does
/// not, so every recorded fault-service and transfer span must carry
/// the exact same simulated timestamps under analytic jumps.

// ----- JSON -----

void WriteJson(const std::vector<Sweep>& sweeps, bool vcd_identical,
               bool trace_identical, bool all_gates) {
  std::FILE* f = std::fopen("BENCH_fastforward.json", "w");
  VCOP_CHECK_MSG(f != nullptr,
                 "cannot open BENCH_fastforward.json for writing");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fastforward\",\n");
  std::fprintf(f, "  \"sweeps\": [\n");
  for (usize s = 0; s < sweeps.size(); ++s) {
    const Sweep& sw = sweeps[s];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", sw.name.c_str());
    std::fprintf(f, "      \"runs\": %zu,\n", sw.runs);
    std::fprintf(f, "      \"modes\": [\n");
    for (usize m = 0; m < sw.modes.size(); ++m) {
      const ModeRow& row = sw.modes[m];
      std::fprintf(f,
                   "        {\"mode\": \"%s\", \"events\": %llu}%s\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.events),
                   m + 1 < sw.modes.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f, "      \"bit_identical\": %s,\n",
                 sw.bit_identical() ? "true" : "false");
    std::fprintf(f, "      \"event_reduction\": %.2f\n",
                 sw.event_reduction());
    std::fprintf(f, "    }%s\n", s + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"artifacts\": {\"fig7_vcd_identical\": %s, "
                  "\"timeline_trace_identical\": %s},\n",
               vcd_identical ? "true" : "false",
               trace_identical ? "true" : "false");
  std::fprintf(f, "  \"gates_pass\": %s,\n", all_gates ? "true" : "false");
  // Everything the host decides (wall time, thread counts) goes last,
  // under "host": the bench_goldens test compares only what precedes it.
  std::fprintf(f, "  \"host\": {\n");
  std::fprintf(f, "    \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "    \"sweeps\": [\n");
  for (usize s = 0; s < sweeps.size(); ++s) {
    const Sweep& sw = sweeps[s];
    std::fprintf(f, "      {\"name\": \"%s\", \"modes\": [\n",
                 sw.name.c_str());
    for (usize m = 0; m < sw.modes.size(); ++m) {
      const ModeRow& row = sw.modes[m];
      std::fprintf(f,
                   "        {\"mode\": \"%s\", \"threads\": %u, "
                   "\"repeats\": %d, \"wall_ms\": %.3f, "
                   "\"warmup_ms\": %.3f}%s\n",
                   row.name.c_str(), row.threads, row.wall.repeats,
                   row.wall.best_ms, row.wall.warmup_ms,
                   m + 1 < sw.modes.size() ? "," : "");
    }
    std::fprintf(f,
                 "      ], \"wall_speedup_1thread\": %.2f, "
                 "\"wall_speedup_fleet\": %.2f}%s\n",
                 sw.modes[1].wall.best_ms > 0.0
                     ? sw.modes[0].wall.best_ms / sw.modes[1].wall.best_ms
                     : 0.0,
                 sw.modes[2].wall.best_ms > 0.0
                     ? sw.modes[0].wall.best_ms / sw.modes[2].wall.best_ms
                     : 0.0,
                 s + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main() {
  // Hung-coprocessor plans are an expected slice of the torture grid;
  // their per-run VIM abort warnings would drown the tables. Configured
  // up front, before any fleet runs (the Logger contract in base/log.h).
  Logger::Get().set_min_level(LogLevel::kError);
  const u32 plans = EnvCount("FF_PLANS", 1000, 1);
  const int repeats = static_cast<int>(EnvCount("FF_REPEATS", 0, 0));
  const u32 fleet_threads = sim::FleetThreadCount();
  std::printf("== fast-forward tier + fleet runner ==\n");
  std::printf("torture plans: %u   conv2d points: %zu   repeats: %d   "
              "fleet threads: %u (hardware: %u)\n\n",
              plans, kConvPoints, repeats, fleet_threads,
              std::thread::hardware_concurrency());

  std::vector<Sweep> sweeps;

  {
    std::printf("torture sweep (%u randomized fault plans):\n", plans);
    Sweep sw;
    sw.name = "torture";
    sw.runs = plans;
    auto point = [](usize i, Engine engine) {
      return TortureRunPoint(static_cast<u64>(i) + 1, engine);
    };
    sw.modes.push_back(RunMode("reference 1-thread", plans,
                               Engine::kReference, 1, repeats, point));
    sw.modes.push_back(
        RunMode("fast 1-thread", plans, Engine::kFast, 1, repeats, point));
    sw.modes.push_back(
        RunMode("fast fleet", plans, Engine::kFast, 0, repeats, point));
    sweeps.push_back(std::move(sw));
  }
  {
    std::printf("conv2d sweep (%zu shape x strategy points):\n", kConvPoints);
    Sweep sw;
    sw.name = "conv2d";
    sw.runs = kConvPoints;
    auto point = [](usize i, Engine engine) {
      return ConvRunPoint(i, engine);
    };
    sw.modes.push_back(RunMode("reference 1-thread", kConvPoints,
                               Engine::kReference, 1, repeats, point));
    sw.modes.push_back(RunMode("fast 1-thread", kConvPoints, Engine::kFast, 1,
                               repeats, point));
    sw.modes.push_back(
        RunMode("fast fleet", kConvPoints, Engine::kFast, 0, repeats, point));
    sweeps.push_back(std::move(sw));
  }

  const bool vcd_identical = bench::Fig7Vcd(EngineConfig(Engine::kFast)) ==
                             bench::Fig7Vcd(EngineConfig(Engine::kReference));
  const bool trace_identical =
      bench::ConvChromeTrace(EngineConfig(Engine::kFast)) ==
      bench::ConvChromeTrace(EngineConfig(Engine::kReference));

  std::printf("\nsummary:\n");
  bool pass = true;
  auto gate = [&](const char* name, bool ok) {
    std::printf("  %-44s %s\n", name, ok ? "pass" : "FAIL");
    if (!ok) pass = false;
  };
  for (const Sweep& sw : sweeps) {
    std::printf("  %s: event reduction %.1fx, wall speedup %.2fx "
                "(1 thread) / %.2fx (fleet, %u threads)\n",
                sw.name.c_str(), sw.event_reduction(),
                sw.modes[0].wall.best_ms / sw.modes[1].wall.best_ms,
                sw.modes[0].wall.best_ms / sw.modes[2].wall.best_ms,
                sw.modes[2].threads);
  }
  gate("torture: bit-identical across engines+fleet",
       sweeps[0].bit_identical());
  gate("torture: event reduction >= 2x", sweeps[0].event_reduction() >= 2.0);
  gate("conv2d: bit-identical across engines+fleet",
       sweeps[1].bit_identical());
  gate("conv2d: event reduction >= 4x", sweeps[1].event_reduction() >= 4.0);
  gate("fig7 VCD byte-identical (tracer vetoes tier)", vcd_identical);
  gate("conv2d Chrome trace byte-identical", trace_identical);
  std::printf("  (wall-clock speedup depends on the host and is reported, "
              "not gated)\n");

  WriteJson(sweeps, vcd_identical, trace_identical, pass);
  std::printf("wrote BENCH_fastforward.json\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
