// One benchmark command per workload and seed:
//
//   perfbench --workload paper_stream|gather_thrash|service_open
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// A run generates the workload's inputs from the seed, does one untimed
// warm-up pass, then repeats set-up + timed pass until S seconds are
// spent. Every pass checks every output against the apps software
// reference and must reproduce the warm-up's simulated results
// bit-for-bit. The last stdout line is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Two kinds of time, named by prefix. sim_* is simulated EPXA1 time:
// deterministic for a seed, so it compares exactly across commits.
// host_* is host time, reported as the median over the run's passes,
// and setup_s as the median of their set-ups.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/sw_model.h"
#include "base/latency_histogram.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "sim/fleet.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace vcop::perfbench {
namespace {

// ----- service_open's fixed load -----
//
// Absolute offered rates (jobs per simulated second over all tenants),
// identical for every commit. At EPXA1 defaults the service saturates
// between 40 and 48 jobs/s depending on the seed (a job pays a 23-47 ms
// reconfiguration when the previous one used another design), so no
// rung sits on the knee: the highest passing rate read 40 at each of 15
// seeds tried, strictly inside the ladder. The p99 limit is far above a
// stable rung's tail (under 1.2 s at 40) and far below a saturated
// one's (over 5 s at 48). Turnaround is reported at the reference rate,
// where the tail is one or two reconfigurations and steady across
// seeds; at 8-16 jobs/s it jumps with the number of queued ones.
constexpr u64 kLadder[] = {4, 8, 16, 24, 32, 40, 48, 56};
constexpr u64 kReferenceRate = 4;
constexpr Picoseconds kP99Limit = 3 * kPicosecondsPerSecond;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return std::nullopt;
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) return std::nullopt;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  if (args.workload != "paper_stream" && args.workload != "gather_thrash" &&
      args.workload != "service_open") {
    return std::nullopt;
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::ranges::sort(v);
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ms(Picoseconds t) { return static_cast<double>(t) / 1e9; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Exact nearest-rank percentile over every sample, in simulated ms.
double PercentileMs(const std::vector<Picoseconds>& samples, double q) {
  return Ms(PercentileNearestRank(samples, q));
}

/// Resident-set high-water mark of this process image, in MB. Read from
/// /proc: getrusage's ru_maxrss keeps the launching process's peak
/// across exec, so it would report the caller's memory, not ours.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  SimStats stats;
  std::vector<Span> spans;
  std::vector<os::TimelineEvent> timeline;  // traced passes only
};

/// Set-up (timed separately), timed pass, then the untimed output check.
template <typename PassType, typename Inputs, typename... RunArgs>
Pass TimePass(const Inputs& inputs, bool traced, RunArgs... run_args) {
  Pass out;
  SpanRecorder spans(traced);
  std::unique_ptr<PassType> pass;
  const Clock::time_point setup_start = Clock::now();
  {
    SpanRecorder::Scope setup(&spans, "setup", 0);
    pass = std::make_unique<PassType>(inputs, spans);
  }
  out.setup_s = SecondsSince(setup_start);
  const Clock::time_point run_start = Clock::now();
  pass->Run(run_args...);
  out.wall_s = SecondsSince(run_start);
  out.stats = pass->Finish();
  if (traced) {
    out.spans = spans.spans();
    out.timeline = pass->timeline();
  }
  return out;
}

/// The reproduction's fixed point: the fig8/fig9 points run through
/// runtime::RunAdpcmVim / RunIdeaVim on a fresh system each, exactly as
/// the fig8_adpcm and fig9_idea benches do.
struct PaperCheck {
  std::vector<Picoseconds> totals;
  double speedup_geomean = 0.0;
  double max_error_pct = 0.0;
  bool outputs_exact = true;
};

PaperCheck RunPaperPoints(const std::vector<Job>& points) {
  PaperCheck check;
  const os::KernelConfig config = runtime::Epxa1Config();
  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  double log_sum = 0.0;
  for (usize i = 0; i < points.size(); ++i) {
    const Job& job = points[i];
    const std::vector<u8>& in = job.objects[0].data;
    runtime::FpgaSystem sys(config);
    Picoseconds sw = 0;
    os::ExecutionReport report;
    std::vector<u8> output;
    if (job.app == App::kAdpcm) {
      auto run = runtime::RunAdpcmVim(sys, in);
      VCOP_CHECK_MSG(run.ok(), run.status().ToString());
      report = run.value().report;
      const std::vector<i16>& out = run.value().output;
      output.resize(out.size() * sizeof(i16));
      std::memcpy(output.data(), out.data(), output.size());
      sw = arm.AdpcmDecodeTime(in.size());
    } else {
      apps::IdeaSubkeys keys{};
      std::memcpy(keys.data(), job.objects[2].data.data(), sizeof(keys));
      auto run = runtime::RunIdeaVim(sys, keys, in);
      VCOP_CHECK_MSG(run.ok(), run.status().ToString());
      report = run.value().report;
      output = run.value().output;
      sw = arm.IdeaEcbTime(in.size());
    }
    check.outputs_exact &= output == Reference(job);
    check.totals.push_back(report.total);
    const double speedup =
        static_cast<double>(sw) / static_cast<double>(report.total);
    log_sum += std::log(speedup);
    check.max_error_pct =
        std::max(check.max_error_pct,
                 100.0 * std::abs(speedup - kPaperSpeedup[i]) / kPaperSpeedup[i]);
  }
  check.speedup_geomean = std::exp(log_sum / static_cast<double>(points.size()));
  return check;
}

struct Rung {
  u64 rate = 0;
  SimStats stats;
  double p99_ms = 0.0;
  bool meets = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintJson(bool correct, u64 attempted, u64 failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (usize i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_stream|gather_thrash|"
                 "service_open --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Args& args = *parsed;
  // Load comes from this one process; fleet parallelism is out of scope.
  setenv("VCOP_FLEET_THREADS", "1", 1);
  const bool service = args.workload == "service_open";

  // ----- generator: the program sees only these inputs -----
  const std::vector<Job> paper_points = PaperPoints(args.seed);
  std::vector<Job> jobs;
  ServiceInputs service_inputs;
  if (args.workload == "paper_stream") jobs = PaperStreamJobs(args.seed);
  if (args.workload == "gather_thrash") jobs = GatherJobs(args.seed);
  if (service) service_inputs = ServiceTenants(args.seed);

  auto run_pass = [&](bool traced, u64 rate) {
    return service ? TimePass<ServicePass>(service_inputs, traced, rate)
                   : TimePass<BlockingPass>(jobs, traced);
  };

  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
  auto account = [&](const SimStats& s) {
    attempted += s.jobs;
    failed += s.failed();
    correct &= s.wrong == 0;
  };

  // ----- untimed warm-up; service_open also climbs the rate ladder -----
  const Pass warm = run_pass(false, kReferenceRate);
  account(warm.stats);
  const SimStats& sim = warm.stats;
  const u64 digest = sim.Digest();
  std::vector<Rung> ladder;
  if (service) {
    for (const u64 rate : kLadder) {
      Rung rung;
      rung.rate = rate;
      if (rate == kReferenceRate) {
        rung.stats = sim;
      } else {
        rung.stats = run_pass(false, rate).stats;
        account(rung.stats);
      }
      rung.p99_ms = PercentileMs(rung.stats.turnaround, 0.99);
      rung.meets = rung.stats.failed() == 0 && !rung.stats.backlog_growing &&
                   rung.p99_ms <= Ms(kP99Limit);
      ladder.push_back(std::move(rung));
    }
  }

  // ----- timed phase; with --trace 1, traced and untraced passes
  //       alternate so the overhead is measured under the same load -----
  std::vector<double> setup_s, wall_s, traced_wall_s;
  std::vector<std::map<std::string, SpanTotals>> traced;  // per pass
  Pass last_traced;
  u64 digest_mismatches = 0;
  const Clock::time_point timed_start = Clock::now();
  for (int i = 0; SecondsSince(timed_start) < args.seconds || i < 3; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    Pass pass = run_pass(trace_this, kReferenceRate);
    account(pass.stats);
    if (pass.stats.Digest() != digest) ++digest_mismatches;
    if (trace_this) {
      traced_wall_s.push_back(pass.wall_s);
      traced.push_back(SummarizeSpans(pass.spans));
      last_traced = std::move(pass);  // only its spans go to the trace file
    } else {
      setup_s.push_back(pass.setup_s);
      wall_s.push_back(pass.wall_s);
    }
  }
  correct &= digest_mismatches == 0;

  // ----- the paper's fixed point, and the cross-check against it -----
  const PaperCheck paper = RunPaperPoints(paper_points);
  correct &= paper.outputs_exact;
  bool cross_check = true;
  if (args.workload == "paper_stream") {
    for (usize i = 0; i < paper.totals.size(); ++i) {
      cross_check &= sim.job_totals.size() > i &&
                     sim.job_totals[i] == paper.totals[i];
    }
    correct &= cross_check;
  }

  // ----- end-to-end metrics -----
  const double host_wall = Median(wall_s);
  const double makespan_s = static_cast<double>(sim.makespan) / 1e12;
  double max_rate = Ratio(static_cast<double>(sim.jobs), makespan_s);
  double jain = sim.jain;
  if (service) {
    max_rate = 0.0;
    for (const Rung& r : ladder) {
      if (r.meets) max_rate = static_cast<double>(r.rate);
    }
    jain = ladder.back().stats.jain;
  }
  // Host time of the timed phase. It is a per-layer metric, not a bounded
  // end-to-end one: on a shared machine, cache and memory contention from
  // other tenants slows the simulator by up to 2x for minutes at a time
  // (a pure ALU loop stays within 20%), so ten runs of one commit spread
  // 0.3-0.45 (IQR/median) in such phases, past any admissible bound.
  const std::vector<Metric> host = {
      {"host_wall_s", host_wall, "s"},
      {"host_ns_per_access",
       Ratio(host_wall * 1e9, static_cast<double>(sim.imu.accesses)), "ns"},
  };
  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_makespan_ms", Ms(sim.makespan), "sim_ms"},
      {"sim_speedup_vs_sw", paper.speedup_geomean, "x"},
      {"paper_speedup_err_pct", paper.max_error_pct, "%"},
      {"sim_turnaround_p50_ms", PercentileMs(sim.turnaround, 0.50), "sim_ms"},
      {"sim_turnaround_p99_ms", PercentileMs(sim.turnaround, 0.99), "sim_ms"},
      {"sim_max_rate_jobs_per_s", max_rate, "jobs/sim_s"},
      {"jain_fairness", jain, "index"},
  };

  // ----- per-layer metrics -----
  std::vector<double> host_ms[6];  // setup stage load execute drive verify
  std::vector<double> host_us[3];  // publish kick reap
  std::map<std::string, SpanTotals> self_time;
  for (const std::map<std::string, SpanTotals>& totals : traced) {
    auto total_ms = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0
                                : static_cast<double>(it->second.total_ns) / 1e6;
    };
    auto mean_us = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end()
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) / 1e3 /
                       static_cast<double>(it->second.calls);
    };
    const char* ms_names[] = {"setup", "stage", "load", "execute", "drive",
                              "verify"};
    for (int k = 0; k < 6; ++k) host_ms[k].push_back(total_ms(ms_names[k]));
    const char* us_names[] = {"publish", "kick", "reap"};
    for (int k = 0; k < 3; ++k) host_us[k].push_back(mean_us(us_names[k]));
    for (const auto& [name, t] : totals) {
      SpanTotals& sum = self_time[name];
      sum.calls += t.calls;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  }
  const double traced_wall = Median(traced_wall_s);
  const double trace_overhead_pct =
      traced.empty() ? 0.0 : 100.0 * Ratio(traced_wall - host_wall, host_wall);
  const u64 faults = sim.vim.faults + sim.vim.tlb_refills;
  std::vector<Metric> per_layer = host;
  per_layer.insert(per_layer.end(), {
      {"sim.events", static_cast<double>(sim.events), "count"},
      {"sim.host_ns_per_event",
       Ratio(host_wall * 1e9, static_cast<double>(sim.events)), "ns"},
      {"cp.cycles", static_cast<double>(sim.cp_cycles), "count"},
      {"imu.accesses", static_cast<double>(sim.imu.accesses), "count"},
      {"imu.reads", static_cast<double>(sim.imu.reads), "count"},
      {"imu.writes", static_cast<double>(sim.imu.writes), "count"},
      {"imu.translate_ps", static_cast<double>(sim.imu.access_latency_time),
       "ps"},
      {"imu.fault_stall_ps", static_cast<double>(sim.imu.fault_stall_time),
       "ps"},
      {"tlb.lookups", static_cast<double>(sim.tlb.lookups), "count"},
      {"tlb.hit_ratio",
       Ratio(static_cast<double>(sim.tlb.hits),
             static_cast<double>(sim.tlb.lookups)),
       "ratio"},
      {"fabric.reconfigs", static_cast<double>(sim.reconfigs), "count"},
      {"fabric.activations", static_cast<double>(sim.activations), "count"},
      {"fabric.config_ps", static_cast<double>(sim.config_time), "ps"},
      {"fabric.config_share",
       Ratio(static_cast<double>(sim.config_time),
             static_cast<double>(sim.makespan)),
       "ratio"},
      {"vim.hard_faults", static_cast<double>(sim.vim.faults), "count"},
      {"vim.soft_faults", static_cast<double>(sim.vim.tlb_refills), "count"},
      {"vim.evictions", static_cast<double>(sim.vim.evictions), "count"},
      {"vim.loads", static_cast<double>(sim.vim.loads), "count"},
      {"vim.writebacks", static_cast<double>(sim.vim.writebacks), "count"},
      {"vim.fault_decode_ps", static_cast<double>(sim.vim.t_imu), "ps"},
      {"vim.fault_service_us_mean",
       Ratio(static_cast<double>(sim.imu.fault_stall_time) / 1e6,
             static_cast<double>(faults)),
       "us"},
      {"vim.prefetch_useful_ratio",
       Ratio(static_cast<double>(sim.vim.prefetch_useful),
             static_cast<double>(sim.vim.prefetched_pages)),
       "ratio"},
      {"vim.ctx_saves", static_cast<double>(sim.vim_service.context_saves),
       "count"},
      {"vim.ctx_restores",
       static_cast<double>(sim.vim_service.context_restores), "count"},
      {"vim.save_writebacks",
       static_cast<double>(sim.vim_service.pages_written_back_on_save),
       "count"},
      {"vim.tlb_entries_restored",
       static_cast<double>(sim.vim_service.tlb_entries_restored), "count"},
      {"xfer.dp_ps", static_cast<double>(sim.vim.t_dp), "ps"},
      {"xfer.bytes_loaded", static_cast<double>(sim.vim.bytes_loaded),
       "bytes"},
      {"xfer.bytes_written_back",
       static_cast<double>(sim.vim.bytes_written_back), "bytes"},
      {"vcopd.dispatches", static_cast<double>(sim.dispatches), "count"},
      {"vcopd.preemptions", static_cast<double>(sim.preemptions), "count"},
      {"vcopd.queue_wait_p50_ms", PercentileMs(sim.queue_wait, 0.50),
       "sim_ms"},
      {"vcopd.queue_wait_p99_ms", PercentileMs(sim.queue_wait, 0.99),
       "sim_ms"},
      {"svc.ring_wait_p99_ms", PercentileMs(sim.ring_wait, 0.99), "sim_ms"},
      {"svc.kicks", static_cast<double>(sim.svc.doorbell_kicks), "count"},
      {"svc.coalesced_ratio",
       Ratio(static_cast<double>(sim.svc.doorbells_coalesced),
             static_cast<double>(sim.svc.doorbell_kicks)),
       "ratio"},
      {"svc.drains", static_cast<double>(sim.svc.drains), "count"},
      {"svc.admission_deferrals",
       static_cast<double>(sim.svc.admission_deferrals), "count"},
      {"svc.daemon_backpressure",
       static_cast<double>(sim.svc.daemon_backpressure), "count"},
      {"svc.ring_rejections", static_cast<double>(sim.refused), "count"},
      {"host.setup_ms", Median(host_ms[0]), "ms"},
      {"host.stage_ms", Median(host_ms[1]), "ms"},
      {"host.load_ms", Median(host_ms[2]), "ms"},
      {"host.execute_ms", Median(host_ms[3]), "ms"},
      {"host.publish_us", Median(host_us[0]), "us"},
      {"host.kick_us", Median(host_us[1]), "us"},
      {"host.drive_ms", Median(host_ms[4]), "ms"},
      {"host.reap_us", Median(host_us[2]), "us"},
      {"host.verify_ms", Median(host_ms[5]), "ms"},
      {"host.trace_overhead_pct", trace_overhead_pct, "%"},
  });

  // ----- report -----
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("build=%s fleet_threads=%u nproc=%u passes=%zu untraced + %zu "
              "traced (after 1 warm-up)\n",
              PERFBENCH_BUILD_TYPE, sim::FleetThreadCount(),
              std::thread::hardware_concurrency(), wall_s.size(),
              traced.size());
  {
    std::vector<double> w = wall_s;
    std::ranges::sort(w);
    std::printf("host pass times (s) over %zu passes: min %.6f, median "
                "%.6f, max %.6f\n",
                w.size(), w.front(), Median(w), w.back());
  }
  const usize n = sim.turnaround.size();
  std::printf("turnaround samples n=%zu: p50 has %zu beyond, p99 has %zu "
              "beyond%s\n",
              n, n - (n + 1) / 2, n - static_cast<usize>(std::ceil(0.99 * n)),
              n < 1000 ? " (fewer than 10: the p99 is the slowest job)" : "");
  if (service) {
    std::printf("\nrate ladder (p99 limit %.0f sim_ms, reference %llu "
                "jobs/sim_s):\n",
                Ms(kP99Limit), static_cast<unsigned long long>(kReferenceRate));
    for (const Rung& r : ladder) {
      std::printf("  %3llu jobs/sim_s: p50 %8.3f p99 %10.3f sim_ms over "
                  "n=%zu, failed %llu, backlog %s, jain %.4f -> %s\n",
                  static_cast<unsigned long long>(r.rate),
                  PercentileMs(r.stats.turnaround, 0.50), r.p99_ms,
                  r.stats.turnaround.size(),
                  static_cast<unsigned long long>(r.stats.failed()),
                  r.stats.backlog_growing ? "growing" : "steady", r.stats.jain,
                  r.meets ? "meets" : "misses");
    }
    std::printf("  fabric.config_share %.4f at the reference rate "
                "(bench_service closed loop: 0.9856)\n",
                Ratio(static_cast<double>(sim.config_time),
                      static_cast<double>(sim.makespan)));
  } else {
    std::printf("\nper-job FPGA_EXECUTE totals (sim_ms):");
    for (const Picoseconds t : sim.job_totals) std::printf(" %.6f", Ms(t));
    std::printf("\n");
  }
  std::printf("paper points (fig8 adpcm 2/4/8 KB, fig9 IDEA 4-32 KB) via "
              "Run*Vim, sim_ms:");
  for (const Picoseconds t : paper.totals) std::printf(" %.6f", Ms(t));
  std::printf("\n");
  if (args.workload == "paper_stream") {
    std::printf("cross-check against the Run*Vim path: %s\n",
                cross_check ? "equal" : "DIFFERENT");
  }
  PrintMetrics("end-to-end metrics:", end_to_end);
  std::printf("  %-28s %18.6f ratio (%llu of %llu attempted)\n",
              "failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  PrintMetrics("host time (median over passes; a per-layer metric):", host);
  if (args.trace) {
    PrintMetrics("per-layer metrics:", per_layer);
    std::printf("  (percentile samples: queue_wait n=%zu, ring_wait n=%zu)\n",
                sim.queue_wait.size(), sim.ring_wait.size());
    std::printf("\nhost self time per traced pass (ms):\n");
    for (const auto& [name, t] : self_time) {
      const double passes = static_cast<double>(traced.size());
      std::printf("  %-10s calls %10.1f  total %10.3f  self %10.3f\n",
                  name.c_str(), static_cast<double>(t.calls) / passes,
                  static_cast<double>(t.total_ns) / 1e6 / passes,
                  static_cast<double>(t.self_ns) / 1e6 / passes);
    }
    if (!args.trace_out.empty() && !traced.empty()) {
      const bool written = WriteChromeTrace(args.trace_out, last_traced.spans,
                                            last_traced.timeline);
      std::printf("chrome trace %s: %s\n", args.trace_out.c_str(),
                  written ? "written" : "NOT WRITTEN");
    }
  }
  std::printf("\ndigest %016llx (every sim_* quantity and count; passes "
              "disagreeing: %llu)\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(digest_mismatches));
  if (!correct) std::printf("FAIL: an output or a simulated result is wrong\n");
  PrintJson(correct, attempted, failed, args.trace ? per_layer : end_to_end);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vcop::perfbench

int main(int argc, char** argv) { return vcop::perfbench::Main(argc, argv); }
