// Service-scale load harness for the ring-transport layer (os/service.h):
// hundreds of tenants publishing bursty mixed adpcm / IDEA / conv3x3
// traffic through per-tenant split rings into one vcopd daemon.
//
// Scenarios, each a fully isolated simulation:
//
//   closed   closed-loop: every tenant keeps one job in flight until it
//            has run its quota. Measures the platform's service
//            capacity (jobs per simulated second) and verifies every
//            tenant's final output against the software reference.
//   open-1x  open-loop: seeded bursty arrival schedule offering the
//            measured capacity, token-bucket admission at 1.5x the
//            per-tenant fair share. Baseline tail latency.
//   open-2x  the same schedule shape at twice the arrival rate — a 2x
//            overload. The transport must degrade by backpressure, not
//            collapse: ring-full rejections absorb the excess while
//            admitted jobs keep a bounded p99 and completions stay
//            fair across tenants (Jain index).
//   suppress completion-interrupt suppression on vs off over an
//            identical workload: the completion streams must be
//            bit-identical — suppression elides wake-ups, never data.
//
// Gates (CI fails on any):
//   * closed-loop outputs bit-exact, all jobs complete;
//   * no starvation at 2x: every tenant completes >= 1 job;
//   * bounded tail at 2x: p99 <= kP99OverloadFactor x the 1x p99;
//   * fairness at 2x: Jain index >= kJainFloor;
//   * suppression on/off completion digests identical.
//
// The fleet is always kTenants tenants x kJobs jobs each, the scale
// EXPERIMENTS.md E19 reports. Deterministic regardless of fleet threads.
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "base/latency_histogram.h"
#include "base/rng.h"
#include "bench/common.h"
#include "os/ring.h"
#include "os/service.h"
#include "os/vcopd.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::kWorkloadSeed;
using runtime::FpgaSystem;

// ----- workload knobs -----

constexpr u32 kTenants = 144;
/// Per-tenant quota.
constexpr u32 kJobs = 4;

/// 2x-overload tail-latency bound, as a multiple of the 1x p99. The
/// token bucket + ring backpressure keep admitted jobs' queueing
/// bounded; without admission control the 2x tail grows with the run
/// length instead.
constexpr double kP99OverloadFactor = 8.0;
/// Jain fairness floor over per-tenant completions at 2x overload.
constexpr double kJainFloor = 0.80;

/// Tenant i runs kApps[i % 3].
constexpr bench::App kApps[] = {bench::App::kAdpcm, bench::App::kIdea,
                                bench::App::kConv};

// Small per-job footprints: the interesting contention is hundreds of
// tenants against one fabric, not one tenant against the pager.
constexpr u32 kAdpcmBytes = 512;
constexpr u32 kIdeaBytes = 512;
constexpr u32 kConvWidth = 24;
constexpr u32 kConvHeight = 12;

// ----- per-tenant state -----

struct TenantState {
  bench::StagedJob staged;
  u32 design = 0;

  u32 published = 0;
  u32 ring_rejections = 0;  // open-loop arrivals dropped at a full ring
  u32 completed = 0;
  u32 failed = 0;
  std::vector<Picoseconds> publish_at;  // indexed by cookie - 1
  std::vector<os::CompletionDescriptor> reaped;  // in reap order
};

/// Registers the tenant, stages its job and attaches it to the service.
TenantState Stage(FpgaSystem& sys, os::Vcopd& daemon,
                  os::VcopService& service, bench::App app, u32 index,
                  u64 seed) {
  const u32 bytes = app == bench::App::kAdpcm ? kAdpcmBytes
                    : app == bench::App::kIdea ? kIdeaBytes
                                               : kConvWidth * kConvHeight;
  TenantState t;
  t.staged = bench::StageTenant(sys, daemon, StrFormat("svc-%u", index),
                                bench::MakeJob(app, bytes, seed, kConvWidth));
  t.design = service.RegisterDesign(t.staged.job.bitstream);
  VCOP_CHECK(service.AttachTenant(t.staged.tenant).ok());
  return t;
}

/// Final-output check: a tenant's jobs run sequentially (one inflight
/// job per tenant) on identical inputs, so after quiescence the output
/// buffer of any tenant that completed >= 1 job must equal the
/// reference.
bool OutputsExact(const TenantState& t) {
  return t.completed == 0 || t.staged.Exact();
}

// ----- scenario runner -----

struct ScenarioParams {
  u32 tenants = 8;
  u32 jobs = 3;  // per-tenant quota
  bool open = false;
  /// Open loop: mean gap between one tenant's consecutive jobs.
  Picoseconds per_job_gap = 0;
  u64 admit_rate = 0;  // jobs per simulated second per tenant (0 = off)
  u32 admit_burst = 16;
  bool suppressed = false;
  /// Closed loop only: publish the whole quota at t=0 under one kick
  /// (requires jobs <= ring entries) instead of notifier-driven
  /// window-1 publishing. The suppression pair uses this so both runs
  /// offer a bit-identical submission schedule.
  bool upfront = false;
  u64 seed = kWorkloadSeed;
};

struct ScenarioResult {
  u64 offered = 0;
  u64 published = 0;
  u64 ring_rejections = 0;
  u64 completed = 0;
  u64 failed = 0;
  u32 starved_tenants = 0;  // tenants with zero completions
  Picoseconds makespan = 0;
  std::vector<Picoseconds> latency;  // publish -> completion, admitted jobs
  double jain = 0.0;
  bool outputs_exact = true;
  u64 completion_digest = 0;  // FNV over every reaped completion
  os::VcopServiceStats service;
  os::VcopdStats daemon;

  /// Exact nearest-rank latency percentile in microseconds: q = 0 is
  /// the minimum, q = 1 the maximum.
  double latency_us(double q) const {
    return ToMicroseconds(PercentileNearestRank(latency, q));
  }
  double mean_latency_us() const {
    if (latency.empty()) return 0.0;
    return ToMicroseconds(
        std::accumulate(latency.begin(), latency.end(), Picoseconds{0}) /
        latency.size());
  }

  double throughput_per_ms() const {
    const double ms = static_cast<double>(makespan) / 1e9;
    return ms > 0.0 ? static_cast<double>(completed) / ms : 0.0;
  }
};

bool PublishOne(os::VcopService& service, TenantState& t, Picoseconds now) {
  os::RingDescriptor d;
  d.cookie = static_cast<u64>(t.published) + 1;
  d.design = t.design;
  const std::vector<u32>& params = t.staged.job.params;
  d.nparams = static_cast<u32>(params.size());
  std::copy(params.begin(), params.end(), d.params.begin());
  const Status status = service.Publish(t.staged.tenant, d);
  if (!status.ok()) {
    // Ring full — the open-loop generator drops the arrival (the edge
    // backpressure the 2x gate is about).
    VCOP_CHECK(status.code() == ErrorCode::kResourceExhausted);
    ++t.ring_rejections;
    return false;
  }
  ++t.published;
  t.publish_at.push_back(now);
  return true;
}

void ReapAll(os::VcopService& service, TenantState& t,
             ScenarioResult& result) {
  while (service.HasCompletions(t.staged.tenant)) {
    const os::CompletionDescriptor c =
        service.Reap(t.staged.tenant).value();
    ++t.completed;
    if (c.code != 0) ++t.failed;
    result.latency.push_back(c.finished_at - t.publish_at[c.cookie - 1]);
    t.reaped.push_back(c);
  }
}

ScenarioResult RunScenario(const ScenarioParams& p) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.service.ring_entries = 16;
  config.service.admit_rate = p.admit_rate;
  config.service.admit_burst = p.admit_burst;
  FpgaSystem sys(config);
  os::VcopdConfig daemon_config;
  daemon_config.max_asids = p.tenants + 2;  // hundreds of tenants, each
                                            // with its own ASID
  os::Vcopd daemon(sys.kernel(), daemon_config);
  os::VcopService service(daemon);  // defaults from the platform config
  sim::Simulator& sim = sys.kernel().simulator();

  ScenarioResult result;
  result.offered = static_cast<u64>(p.tenants) * p.jobs;

  std::vector<TenantState> tenants;
  tenants.reserve(p.tenants);
  for (u32 i = 0; i < p.tenants; ++i) {
    tenants.push_back(
        Stage(sys, daemon, service, kApps[i % 3], i, p.seed + i));
  }

  if (p.suppressed) {
    for (TenantState& t : tenants) {
      service.SetInterruptSuppression(t.staged.tenant, true);
    }
  } else {
    // Interrupt-driven tenants: reap at the completion instant.
    for (TenantState& t : tenants) {
      TenantState* tp = &t;
      service.SetCompletionNotifier(t.staged.tenant, [&service, tp, &result] {
        ReapAll(service, *tp, result);
      });
    }
  }

  if (!p.open) {
    if (p.upfront) {
      // Whole quota at t=0 under one kick per tenant — the submission
      // schedule is bit-identical whether suppression is on or off,
      // which is exactly what the suppression comparison needs.
      VCOP_CHECK_MSG(p.jobs <= service.config().ring_entries,
                     "upfront closed loop needs jobs <= ring entries");
      for (TenantState& t : tenants) {
        for (u32 j = 0; j < p.jobs; ++j) {
          VCOP_CHECK(PublishOne(service, t, sim.now()));
          // Doorbell per publish: every kick past the first lands while
          // the drain is pending and coalesces into it.
          VCOP_CHECK(service.Kick(t.staged.tenant).ok());
        }
      }
    } else {
      // Window-1 closed loop: the completion notifier publishes the
      // next job until the quota is done (needs notifications).
      VCOP_CHECK_MSG(!p.suppressed,
                     "window-1 closed loop needs completion notifications");
      for (TenantState& t : tenants) {
        TenantState* tp = &t;
        service.SetCompletionNotifier(
            t.staged.tenant, [&service, &sim, tp, &result, jobs = p.jobs] {
              ReapAll(service, *tp, result);
              if (tp->published < jobs &&
                  PublishOne(service, *tp, sim.now())) {
                VCOP_CHECK(service.Kick(tp->staged.tenant).ok());
              }
            });
        VCOP_CHECK(PublishOne(service, t, sim.now()));
        VCOP_CHECK(service.Kick(t.staged.tenant).ok());
      }
    }
  } else {
    // Open loop: precomputed bursty arrival schedule. Bursts of 1-3
    // jobs share one instant and one doorbell (coalescing on the
    // publish side); gaps are uniform around the configured mean, in
    // integer picoseconds — no libm in the schedule.
    Rng rng(p.seed ^ 0x5e1f5e1f5e1f5e1full);
    for (TenantState& t : tenants) {
      TenantState* tp = &t;
      Picoseconds at = rng.NextBelow(p.per_job_gap + 1);
      u32 remaining = p.jobs;
      while (remaining > 0) {
        const u32 burst =
            std::min(remaining, 1 + static_cast<u32>(rng.NextBelow(3)));
        sim.ScheduleAt(at, [&service, &sim, tp, burst] {
          for (u32 b = 0; b < burst; ++b) {
            // Doorbell per publish; kicks within the burst coalesce
            // into the first one's pending drain.
            if (PublishOne(service, *tp, sim.now())) {
              VCOP_CHECK(service.Kick(tp->staged.tenant).ok());
            }
          }
        });
        remaining -= burst;
        const u64 mean = static_cast<u64>(burst) * p.per_job_gap;
        at += mean / 2 + rng.NextBelow(mean + 1);
      }
    }
  }

  const Status status = service.RunUntilQuiescent();
  VCOP_CHECK_MSG(status.ok(), status.ToString());

  // Poll-mode tenants (and any straggler) reap after quiescence.
  for (TenantState& t : tenants) ReapAll(service, t, result);

  // ----- aggregate -----
  double sum = 0.0, sum_sq = 0.0;
  u64 digest = 1469598103934665603ull;
  auto mix = [&digest](u64 v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= static_cast<u8>(v >> (8 * i));
      digest *= 1099511628211ull;
    }
  };
  for (TenantState& t : tenants) {
    result.published += t.published;
    result.ring_rejections += t.ring_rejections;
    result.completed += t.completed;
    result.failed += t.failed;
    if (t.completed == 0) ++result.starved_tenants;
    result.outputs_exact &= t.failed == 0 && OutputsExact(t);
    sum += static_cast<double>(t.completed);
    sum_sq +=
        static_cast<double>(t.completed) * static_cast<double>(t.completed);
    mix(t.staged.tenant);
    for (const os::CompletionDescriptor& c : t.reaped) {
      mix(c.cookie);
      mix(c.code);
      mix(c.preemptions);
      mix(static_cast<u64>(c.submitted_at));
      mix(static_cast<u64>(c.started_at));
      mix(static_cast<u64>(c.finished_at));
    }
  }
  result.completion_digest = digest;
  result.jain = sum_sq > 0.0
                    ? (sum * sum) / (static_cast<double>(p.tenants) * sum_sq)
                    : 0.0;
  result.makespan = service.BuildScheduleReport().makespan;
  result.service = service.stats();
  result.daemon = daemon.stats();
  return result;
}

// ----- reporting -----

void PrintScenario(const char* title, const ScenarioResult& r) {
  std::printf("-- %s --\n", title);
  std::printf(
      "  offered %llu, published %llu, ring-rejected %llu, completed %llu "
      "(%llu failed), starved %u\n",
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.published),
      static_cast<unsigned long long>(r.ring_rejections),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed), r.starved_tenants);
  std::printf(
      "  makespan %.1f us, %.2f jobs/sim-ms, latency p50/p99/p999 = "
      "%.1f/%.1f/%.1f us, jain %.3f\n",
      ToMicroseconds(r.makespan), r.throughput_per_ms(),
      r.latency_us(0.50), r.latency_us(0.99), r.latency_us(0.999), r.jain);
  std::printf(
      "  transport: %llu kicks (%llu coalesced), %llu drains (max batch "
      "%llu), %llu admission deferrals, %llu daemon backpressure, "
      "%llu notified, %llu suppressed\n\n",
      static_cast<unsigned long long>(r.service.doorbell_kicks),
      static_cast<unsigned long long>(r.service.doorbells_coalesced),
      static_cast<unsigned long long>(r.service.drains),
      static_cast<unsigned long long>(r.service.max_batch),
      static_cast<unsigned long long>(r.service.admission_deferrals),
      static_cast<unsigned long long>(r.service.daemon_backpressure),
      static_cast<unsigned long long>(r.service.completions_notified),
      static_cast<unsigned long long>(r.service.completions_suppressed));
}

void JsonScenario(std::FILE* f, const char* key, const ScenarioResult& r,
                  bool trailing_comma) {
  std::fprintf(
      f,
      "  \"%s\": {\n"
      "    \"offered\": %llu, \"published\": %llu, "
      "\"ring_rejections\": %llu, \"completed\": %llu, \"failed\": %llu,\n"
      "    \"starved_tenants\": %u, \"makespan_us\": %.3f, "
      "\"jobs_per_sim_ms\": %.3f,\n"
      "    \"latency_us\": {\"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f, "
      "\"min\": %.3f, \"max\": %.3f, \"mean\": %.3f},\n"
      "    \"jain\": %.4f, \"outputs_exact\": %s,\n"
      "    \"reconfigurations\": %llu, \"config_time_us\": %.3f, "
      "\"config_share\": %.4f,\n"
      "    \"transport\": {\"kicks\": %llu, \"coalesced\": %llu, "
      "\"drains\": %llu, \"max_batch\": %llu, \"admission_deferrals\": %llu, "
      "\"daemon_backpressure\": %llu, \"notified\": %llu, "
      "\"suppressed\": %llu}\n"
      "  }%s\n",
      key, static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.published),
      static_cast<unsigned long long>(r.ring_rejections),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed), r.starved_tenants,
      ToMicroseconds(r.makespan), r.throughput_per_ms(),
      r.latency_us(0.50), r.latency_us(0.99), r.latency_us(0.999),
      r.latency_us(0.0), r.latency_us(1.0), r.mean_latency_us(),
      r.jain, r.outputs_exact ? "true" : "false",
      static_cast<unsigned long long>(r.daemon.reconfigurations),
      ToMicroseconds(r.daemon.total_config_time),
      r.makespan > 0 ? static_cast<double>(r.daemon.total_config_time) /
                           static_cast<double>(r.makespan)
                     : 0.0,
      static_cast<unsigned long long>(r.service.doorbell_kicks),
      static_cast<unsigned long long>(r.service.doorbells_coalesced),
      static_cast<unsigned long long>(r.service.drains),
      static_cast<unsigned long long>(r.service.max_batch),
      static_cast<unsigned long long>(r.service.admission_deferrals),
      static_cast<unsigned long long>(r.service.daemon_backpressure),
      static_cast<unsigned long long>(r.service.completions_notified),
      static_cast<unsigned long long>(r.service.completions_suppressed),
      trailing_comma ? "," : "");
}

int Main() {
  std::printf(
      "== ring-transport service layer: %u tenants x %u jobs, "
      "mixed adpcm/IDEA/conv3x3 ==\n\n",
      kTenants, kJobs);
  int rc = 0;
  bench::WallTimer timer;

  // ----- closed loop: capacity + correctness -----
  ScenarioParams closed_params;
  closed_params.tenants = kTenants;
  closed_params.jobs = kJobs;
  const ScenarioResult closed = RunScenario(closed_params);
  PrintScenario("closed loop (capacity)", closed);
  if (!closed.outputs_exact) {
    std::printf("FAIL: closed-loop outputs diverged from the reference\n");
    rc = 1;
  }
  if (closed.completed != closed.offered) {
    std::printf("FAIL: closed loop did not complete every job\n");
    rc = 1;
  }

  // Capacity in jobs per simulated second, from the closed-loop run.
  const u64 capacity = closed.makespan > 0
                           ? closed.completed * kPicosecondsPerSecond /
                                 closed.makespan
                           : 0;
  // Token bucket: 1.5x each tenant's fair share of the capacity, small
  // burst — overload must park in the rings, not in the daemon.
  const u64 admit_rate = std::max<u64>(1, capacity * 3 / 2 / kTenants);
  // Mean per-tenant inter-job gap at 1x offered load.
  const u64 gap_1x = capacity > 0 ? static_cast<u64>(kTenants) *
                                        kPicosecondsPerSecond / capacity
                                  : 1;
  std::printf(
      "  capacity %llu jobs/sim-s -> admit %llu jobs/s/tenant, "
      "1x gap %.1f us\n\n",
      static_cast<unsigned long long>(capacity),
      static_cast<unsigned long long>(admit_rate),
      ToMicroseconds(gap_1x));

  // ----- open loop at 1x and 2x, side by side on the fleet runner ----
  auto open_params = [&](u32 scale) {
    ScenarioParams p;
    p.tenants = kTenants;
    p.jobs = kJobs;
    p.open = true;
    p.per_job_gap = std::max<u64>(1, gap_1x / scale);
    p.admit_rate = admit_rate;
    p.admit_burst = 2;  // tighter than the burst size: bursts of three
                        // hit the bucket and defer the drain
    p.seed = kWorkloadSeed + 100 + scale;  // distinct arrival streams
    return p;
  };
  const std::vector<ScenarioResult> open_runs =
      sim::FleetMap<ScenarioResult>(2, [&](usize i) {
        return RunScenario(open_params(i == 0 ? 1 : 2));
      });
  const ScenarioResult& open_1x = open_runs[0];
  const ScenarioResult& open_2x = open_runs[1];
  PrintScenario("open loop, 1x offered load", open_1x);
  PrintScenario("open loop, 2x offered load", open_2x);
  if (!open_1x.outputs_exact || !open_2x.outputs_exact) {
    std::printf("FAIL: open-loop outputs diverged from the reference\n");
    rc = 1;
  }
  if (open_2x.starved_tenants > 0) {
    std::printf("FAIL: %u tenants starved at 2x overload\n",
                open_2x.starved_tenants);
    rc = 1;
  }
  const double p99_1x = open_1x.latency_us(0.99);
  const double p99_2x = open_2x.latency_us(0.99);
  if (p99_1x > 0.0 && p99_2x > kP99OverloadFactor * p99_1x) {
    std::printf("FAIL: 2x p99 %.1f us exceeds %.1fx the 1x p99 %.1f us\n",
                p99_2x, kP99OverloadFactor, p99_1x);
    rc = 1;
  }
  if (open_2x.jain < kJainFloor) {
    std::printf("FAIL: 2x Jain index %.3f below %.2f\n", open_2x.jain,
                kJainFloor);
    rc = 1;
  }

  // ----- suppression on/off bit-identity -----
  auto suppression_params = [&](bool suppressed) {
    ScenarioParams p;
    p.tenants = 9;
    p.jobs = 3;
    p.suppressed = suppressed;
    p.upfront = true;  // identical submission schedule for both runs
    p.seed = kWorkloadSeed + 1000;
    return p;
  };
  const std::vector<ScenarioResult> supp_runs =
      sim::FleetMap<ScenarioResult>(2, [&](usize i) {
        return RunScenario(suppression_params(i == 1));
      });
  const ScenarioResult& notified = supp_runs[0];
  const ScenarioResult& suppressed = supp_runs[1];
  PrintScenario("suppression off (interrupt-driven)", notified);
  PrintScenario("suppression on (polled)", suppressed);
  const bool digests_match =
      notified.completion_digest == suppressed.completion_digest &&
      notified.completed == suppressed.completed;
  std::printf("  completion digests %016llx vs %016llx -> %s\n\n",
              static_cast<unsigned long long>(notified.completion_digest),
              static_cast<unsigned long long>(suppressed.completion_digest),
              digests_match ? "identical" : "DIVERGED");
  if (!digests_match) {
    std::printf(
        "FAIL: suppression changed completion content (must only elide "
        "wake-ups)\n");
    rc = 1;
  }
  if (suppressed.service.completions_notified != 0 ||
      notified.service.completions_suppressed != 0) {
    std::printf("FAIL: suppression accounting inconsistent\n");
    rc = 1;
  }

  const double wall_ms = timer.ElapsedMs();
  const u32 fleet_threads = sim::FleetThreadCount();
  std::printf("total wall time %.1f ms (%u fleet threads)\n", wall_ms,
              fleet_threads);

  // ----- JSON -----
  std::FILE* f = std::fopen("BENCH_service.json", "w");
  VCOP_CHECK_MSG(f != nullptr, "cannot open BENCH_service.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"service\",\n");
  std::fprintf(f, "  \"tenants\": %u,\n  \"jobs_per_tenant\": %u,\n",
               kTenants, kJobs);
  std::fprintf(f, "  \"capacity_jobs_per_sim_s\": %llu,\n",
               static_cast<unsigned long long>(capacity));
  std::fprintf(f, "  \"admit_rate_per_tenant\": %llu,\n",
               static_cast<unsigned long long>(admit_rate));
  JsonScenario(f, "closed", closed, true);
  JsonScenario(f, "open_1x", open_1x, true);
  JsonScenario(f, "open_2x", open_2x, true);
  JsonScenario(f, "suppression_off", notified, true);
  JsonScenario(f, "suppression_on", suppressed, true);
  std::fprintf(
      f,
      "  \"gates\": {\"closed_exact\": %s, \"no_starvation_2x\": %s, "
      "\"p99_bounded_2x\": %s, \"jain_2x\": %s, "
      "\"suppression_identical\": %s},\n",
      closed.outputs_exact && closed.completed == closed.offered ? "true"
                                                                 : "false",
      open_2x.starved_tenants == 0 ? "true" : "false",
      p99_1x <= 0.0 || p99_2x <= kP99OverloadFactor * p99_1x ? "true"
                                                             : "false",
      open_2x.jain >= kJainFloor ? "true" : "false",
      digests_match ? "true" : "false");
  // What the host decides goes last, under "host": the bench_goldens
  // test compares only what precedes it.
  std::fprintf(f,
               "  \"host\": {\"wall_ms\": %.3f, \"fleet_threads\": %u, "
               "\"hardware_concurrency\": %u}\n",
               wall_ms, fleet_threads, std::thread::hardware_concurrency());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_service.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
