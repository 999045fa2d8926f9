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
//   * every scenario's outputs bit-exact; the closed loop completes
//     every job;
//   * no starvation at 2x: every tenant completes >= 1 job;
//   * bounded tail at 2x: p99 <= 8x the 1x p99;
//   * fairness at 2x: Jain index >= 0.80;
//   * suppression on/off completion digests identical, and only the
//     suppressed run counts suppressed completions.
//
// The fleet is always kTenants tenants x kJobs jobs each, the scale
// EXPERIMENTS.md E19 reports. Deterministic regardless of fleet threads.
#include <numeric>

#include "base/rng.h"
#include "bench/common.h"
#include "os/ring.h"
#include "os/service.h"

namespace vcop {
namespace {

using bench::kWorkloadSeed;
using runtime::FpgaSystem;

// ----- workload knobs -----

constexpr u32 kTenants = 144;
/// Per-tenant quota.
constexpr u32 kJobs = 4;

/// Tenant i runs kApps[i % 3].
constexpr bench::App kApps[] = {bench::App::kAdpcm, bench::App::kIdea,
                                bench::App::kConv};

// Small per-job footprints: the interesting contention is hundreds of
// tenants against one fabric, not one tenant against the pager. adpcm
// and IDEA take 512 bytes of input each.
constexpr u32 kStreamBytes = 512;
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

/// Reaps `t`'s completions, adding each job's publish-to-completion
/// latency to `latency`.
void ReapAll(os::VcopService& service, TenantState& t,
             std::vector<Picoseconds>& latency) {
  while (service.HasCompletions(t.staged.tenant)) {
    const os::CompletionDescriptor c =
        service.Reap(t.staged.tenant).value();
    ++t.completed;
    if (c.code != 0) ++t.failed;
    latency.push_back(c.finished_at - t.publish_at[c.cookie - 1]);
    t.reaped.push_back(c);
  }
}

void RunScenario(const ScenarioParams& p, bench::Values& v) {
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

  std::vector<Picoseconds> latency;

  // Registers each tenant, stages its job and attaches it to the service.
  std::vector<TenantState> tenants(p.tenants);
  for (u32 i = 0; i < p.tenants; ++i) {
    TenantState& t = tenants[i];
    const bench::App app = kApps[i % 3];
    const u32 bytes =
        app == bench::App::kConv ? kConvWidth * kConvHeight : kStreamBytes;
    t.staged = bench::StageTenant(
        sys, daemon, StrFormat("svc-%u", i),
        bench::MakeJob(app, bytes, p.seed + i, kConvWidth));
    t.design = service.RegisterDesign(t.staged.job.bitstream);
    VCOP_CHECK(service.AttachTenant(t.staged.tenant).ok());
  }

  // Interrupt-driven tenants reap at the completion instant; in the
  // window-1 closed loop the notifier also publishes the tenant's next
  // job until its quota is done. Polled tenants reap after quiescence.
  const bool window1 = !p.open && !p.upfront;
  VCOP_CHECK_MSG(!window1 || !p.suppressed,
                 "window-1 closed loop needs completion notifications");
  for (TenantState& t : tenants) {
    TenantState* tp = &t;
    if (p.suppressed) {
      service.SetInterruptSuppression(t.staged.tenant, true);
      continue;
    }
    service.SetCompletionNotifier(
        t.staged.tenant,
        [&service, &sim, tp, &latency, window1, jobs = p.jobs] {
          ReapAll(service, *tp, latency);
          if (window1 && tp->published < jobs &&
              PublishOne(service, *tp, sim.now())) {
            VCOP_CHECK(service.Kick(tp->staged.tenant).ok());
          }
        });
  }

  if (!p.open) {
    // Upfront: the whole quota at t=0, so the submission schedule is
    // bit-identical whether suppression is on or off, which is exactly
    // what the suppression comparison needs. Window-1: the first job.
    VCOP_CHECK_MSG(!p.upfront || p.jobs <= service.config().ring_entries,
                   "upfront closed loop needs jobs <= ring entries");
    for (TenantState& t : tenants) {
      for (u32 j = 0; j < (p.upfront ? p.jobs : 1); ++j) {
        VCOP_CHECK(PublishOne(service, t, sim.now()));
        // Doorbell per publish: every kick past the first lands while
        // the drain is pending and coalesces into it.
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
  for (TenantState& t : tenants) ReapAll(service, t, latency);

  // ----- aggregate -----
  u64 published = 0, ring_rejections = 0, completed = 0, failed = 0;
  u64 starved = 0;  // tenants with zero completions
  bool outputs_exact = true;
  double sum = 0.0, sum_sq = 0.0;
  bench::Digest digest;  // over every reaped completion
  for (TenantState& t : tenants) {
    published += t.published;
    ring_rejections += t.ring_rejections;
    completed += t.completed;
    failed += t.failed;
    if (t.completed == 0) ++starved;
    // A tenant's jobs run one at a time on identical inputs, so after
    // quiescence the output of a tenant that completed a job must equal
    // the reference.
    outputs_exact &= t.failed == 0 && (t.completed == 0 || t.staged.Exact());
    sum += static_cast<double>(t.completed);
    sum_sq +=
        static_cast<double>(t.completed) * static_cast<double>(t.completed);
    digest.Mix(t.staged.tenant);
    for (const os::CompletionDescriptor& c : t.reaped) {
      digest.Mix(c.cookie);
      digest.Mix(c.code);
      digest.Mix(c.preemptions);
      digest.Mix(c.submitted_at);
      digest.Mix(c.started_at);
      digest.Mix(c.finished_at);
    }
  }
  const Picoseconds makespan = service.BuildScheduleReport().makespan;
  const os::VcopdStats daemon_stats = daemon.stats();
  const double ms = static_cast<double>(makespan) / 1e9;
  // Exact nearest-rank latency percentiles: q = 0 is the minimum, q = 1
  // the maximum.
  auto percentile = [&latency](double q) {
    return PercentileNearestRank(latency, q);
  };
  v.Count("tenants", p.tenants)
      .Count("jobs_per_tenant", p.jobs)
      .Count("admit_rate_per_tenant", p.admit_rate)
      .Count("offered", static_cast<u64>(p.tenants) * p.jobs)
      .Count("published", published)
      .Count("ring_rejections", ring_rejections)
      .Count("completed", completed)
      .Count("failed", failed)
      .Count("starved_tenants", starved)
      .Us("makespan_us", makespan)
      .Count("jobs_per_sim_s",
             makespan > 0 ? completed * kPicosecondsPerSecond / makespan : 0)
      .Real("jobs_per_sim_ms", ms > 0.0 ? static_cast<double>(completed) / ms
                                        : 0.0,
            3)
      .Us("latency_us.p50", percentile(0.50))
      .Us("latency_us.p99", percentile(0.99))
      .Us("latency_us.p999", percentile(0.999))
      .Us("latency_us.min", percentile(0.0))
      .Us("latency_us.max", percentile(1.0))
      .Us("latency_us.mean",
          latency.empty() ? 0
                          : std::accumulate(latency.begin(), latency.end(),
                                            Picoseconds{0}) /
                                latency.size())
      .Real("jain",
            sum_sq > 0.0
                ? (sum * sum) / (static_cast<double>(p.tenants) * sum_sq)
                : 0.0,
            4)
      .Flag("outputs_exact", outputs_exact)
      .Add(os::FieldsOf(daemon_stats),
           {"vcopd.reconfigurations", "vcopd.total_config_time_us"})
      .Real("config_share",
            makespan > 0 ? static_cast<double>(daemon_stats.total_config_time) /
                               static_cast<double>(makespan)
                         : 0.0,
            4)
      .Add(os::FieldsOf(service.stats()),
           {"svc.doorbell_kicks", "svc.doorbells_coalesced", "svc.drains",
            "svc.max_batch", "svc.admission_deferrals",
            "svc.daemon_backpressure", "svc.completions_notified",
            "svc.completions_suppressed"})
      .Text("completion_digest",
            StrFormat("%016llx",
                      static_cast<unsigned long long>(digest.value())));
}

int Main() {
  bench::Bench bench("service");
  auto scenario = [](const ScenarioParams& p) {
    return [p](bench::Values& v) { RunScenario(p, v); };
  };
  // Closed loop: capacity + correctness.
  bench.Run({{"closed", scenario({.tenants = kTenants, .jobs = kJobs})}});

  // Capacity in jobs per simulated second, from the closed-loop run.
  const u64 capacity =
      static_cast<u64>(bench.Get("closed", "jobs_per_sim_s").number);
  // Token bucket: 1.5x each tenant's fair share of the capacity, small
  // burst — overload must park in the rings, not in the daemon.
  const u64 admit_rate = std::max<u64>(1, capacity * 3 / 2 / kTenants);
  // Mean per-tenant inter-job gap at 1x offered load.
  const u64 gap_1x = capacity > 0 ? static_cast<u64>(kTenants) *
                                        kPicosecondsPerSecond / capacity
                                  : 1;
  // The open loop at 1x and 2x, on distinct arrival streams. A bucket
  // of 2, tighter than the burst size: bursts of three hit the bucket
  // and defer the drain.
  auto open = [&](u32 scale) {
    return scenario({.tenants = kTenants,
                     .jobs = kJobs,
                     .open = true,
                     .per_job_gap = std::max<u64>(1, gap_1x / scale),
                     .admit_rate = admit_rate,
                     .admit_burst = 2,
                     .seed = kWorkloadSeed + 100 + scale});
  };
  // Suppression off and on over one upfront submission schedule.
  auto suppression = [&](bool on) {
    return scenario({.tenants = 9,
                     .jobs = 3,
                     .suppressed = on,
                     .upfront = true,
                     .seed = kWorkloadSeed + 1000});
  };
  bench.Run({{"open_1x", open(1)},
             {"open_2x", open(2)},
             {"suppression_off", suppression(false)},
             {"suppression_on", suppression(true)}});

  using bench::Cmp;
  return bench.Finish({
      {"", "outputs_exact", Cmp::kEq, 1},
      {"closed", "completed", Cmp::kEq, 0, "", "offered"},
      {"open_2x", "starved_tenants", Cmp::kEq, 0},
      // The token bucket and ring backpressure keep admitted jobs'
      // queueing bounded; without admission control the 2x tail grows
      // with the run length instead.
      {"open_2x", "latency_us.p99", Cmp::kLe, 0, "open_1x", "latency_us.p99",
       8},
      {"open_2x", "jain", Cmp::kGe, 0.80},
      // Suppression elides wake-ups, never data.
      {"suppression_on", "completion_digest", Cmp::kEq, 0, "suppression_off",
       "completion_digest"},
      {"suppression_on", "completed", Cmp::kEq, 0, "suppression_off",
       "completed"},
      {"suppression_on", "svc.completions_notified", Cmp::kEq, 0},
      {"suppression_off", "svc.completions_suppressed", Cmp::kEq, 0},
  });
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
