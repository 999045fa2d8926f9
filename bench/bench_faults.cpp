// Characterises the fault-injection substrate and the VIM's recovery
// machinery: N seeded random fault plans (default 256, override with
// FAULT_PLANS=<n>) run the seeded fault-plan grid (bench/common.h,
// RunGrid) across the four reference workloads. Every run must either
// complete byte-identical to the software model or fail with a clean
// Status, and leave a quiescent simulator (the grid's end-of-run audit
// aborts otherwise); a run that completes with wrong bytes — or an
// aggregate counter pattern showing the recovery paths were never
// exercised — fails the bench (rc 1). Per-site opportunity/injection
// counts and the recovery-counter rollup go to BENCH_faults.json.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "base/fault.h"
#include "bench/common.h"
#include "os/vim.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

constexpr u32 kNumWorkloads = 4;

void Accumulate(os::VimServiceStats& into, const os::VimServiceStats& run) {
  into.transfer_retries += run.transfer_retries;
  into.transfer_retry_failures += run.transfer_retry_failures;
  into.watchdog_wakeups += run.watchdog_wakeups;
  into.watchdog_recoveries += run.watchdog_recoveries;
  into.watchdog_hang_aborts += run.watchdog_hang_aborts;
  into.duplicate_irqs_ignored += run.duplicate_irqs_ignored;
  into.spurious_faults_ignored += run.spurious_faults_ignored;
  into.fault_budget_aborts += run.fault_budget_aborts;
  into.tlb_parity_drops += run.tlb_parity_drops;
}

int Main() {
  u64 plans = 256;
  if (const char* env = std::getenv("FAULT_PLANS")) {
    plans = std::strtoull(env, nullptr, 10);
    if (plans == 0) plans = 256;
  }
  std::printf(
      "== fault injection: %llu seeded plans across "
      "adpcm/idea/vecadd/conv2d ==\n\n",
      static_cast<unsigned long long>(plans));

  u64 completed = 0, failed = 0, silent_corruptions = 0;
  u64 injected_total = 0;
  std::array<FaultSiteStats, kNumFaultSites> sites{};
  os::VimServiceStats recovery;
  u64 per_workload_completed[kNumWorkloads] = {};
  u64 per_workload_failed[kNumWorkloads] = {};

  // Each seed is an isolated (plan, system, workload) simulation: fan
  // the sweep out over the fleet, collect per-seed results by index,
  // and aggregate sequentially so every printed number (and the JSON)
  // is identical to the old single-threaded loop.
  struct SeedResult {
    bench::FreshRun out;
    u64 injected = 0;
    std::array<FaultSiteStats, kNumFaultSites> sites{};
  };
  const std::vector<SeedResult> results = sim::FleetMap<SeedResult>(
      plans, [](usize i) {
        const u64 seed = static_cast<u64>(i) + 1;
        FaultPlan plan = FaultPlan::Random(seed);
        SeedResult r;
        r.out = bench::RunGrid(seed, runtime::Epxa1Config(), &plan);
        r.injected = plan.total_injected();
        for (usize s = 0; s < kNumFaultSites; ++s) {
          r.sites[s] = plan.stats(static_cast<FaultSite>(s));
        }
        return r;
      });

  for (u64 seed = 1; seed <= plans; ++seed) {
    const SeedResult& result = results[seed - 1];
    const bench::FreshRun& out = result.out;
    if (out.status.ok() && out.exact) {
      ++completed;
      ++per_workload_completed[seed % kNumWorkloads];
    } else if (out.status.ok()) {
      ++silent_corruptions;
      std::printf("FAIL: seed %llu (%s) completed with wrong bytes\n",
                  static_cast<unsigned long long>(seed),
                  bench::AppName(bench::GridApp(seed)));
    } else {
      ++failed;
      ++per_workload_failed[seed % kNumWorkloads];
    }
    injected_total += result.injected;
    for (usize s = 0; s < kNumFaultSites; ++s) {
      sites[s].opportunities += result.sites[s].opportunities;
      sites[s].injected += result.sites[s].injected;
    }
    Accumulate(recovery, out.service);
  }

  Table table({"site", "opportunities", "injected"});
  table.set_title("fault sites (aggregate over all plans)");
  for (usize s = 0; s < kNumFaultSites; ++s) {
    table.AddRow({FaultSiteName(static_cast<FaultSite>(s)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        sites[s].opportunities)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        sites[s].injected))});
  }
  table.Print();

  std::printf(
      "\n  %llu/%llu runs exact, %llu clean failures, %llu silent "
      "corruptions, %llu faults injected\n",
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(plans),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(silent_corruptions),
      static_cast<unsigned long long>(injected_total));
  for (u32 w = 0; w < kNumWorkloads; ++w) {
    std::printf("    %-7s %llu completed / %llu failed\n",
                bench::AppName(bench::GridApp(w)),
                static_cast<unsigned long long>(per_workload_completed[w]),
                static_cast<unsigned long long>(per_workload_failed[w]));
  }
  std::printf(
      "  recovery: %llu transfer retries (%llu exhausted), %llu watchdog "
      "wakeups (%llu recoveries, %llu hang aborts), %llu duplicate + %llu "
      "spurious IRQs ignored, %llu budget aborts, %llu parity drops\n\n",
      static_cast<unsigned long long>(recovery.transfer_retries),
      static_cast<unsigned long long>(recovery.transfer_retry_failures),
      static_cast<unsigned long long>(recovery.watchdog_wakeups),
      static_cast<unsigned long long>(recovery.watchdog_recoveries),
      static_cast<unsigned long long>(recovery.watchdog_hang_aborts),
      static_cast<unsigned long long>(recovery.duplicate_irqs_ignored),
      static_cast<unsigned long long>(recovery.spurious_faults_ignored),
      static_cast<unsigned long long>(recovery.fault_budget_aborts),
      static_cast<unsigned long long>(recovery.tlb_parity_drops));

  int rc = 0;
  if (silent_corruptions > 0) {
    std::printf("FAIL: %llu runs completed with corrupted output\n",
                static_cast<unsigned long long>(silent_corruptions));
    rc = 1;
  }
  if (completed == 0) {
    std::printf("FAIL: no run survived its fault plan\n");
    rc = 1;
  }
  if (injected_total == 0) {
    std::printf("FAIL: the random plans never injected anything\n");
    rc = 1;
  }
  // With the default mix the recovery machinery must actually run; on a
  // heavily reduced smoke sweep (< 64 plans) the rare paths may not
  // trigger, so only gate the aggregate there.
  const u64 recovered = recovery.transfer_retries +
                        recovery.watchdog_recoveries +
                        recovery.duplicate_irqs_ignored +
                        recovery.spurious_faults_ignored +
                        recovery.tlb_parity_drops;
  if (recovered == 0) {
    std::printf("FAIL: no recovery path was ever exercised\n");
    rc = 1;
  }
  if (plans >= 64 && failed == 0) {
    std::printf("FAIL: every plan completed — injection looks inert\n");
    rc = 1;
  }

  std::FILE* f = std::fopen("BENCH_faults.json", "w");
  VCOP_CHECK_MSG(f != nullptr, "cannot open BENCH_faults.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"faults\",\n");
  std::fprintf(
      f,
      "  \"plans\": %llu,\n  \"completed_exact\": %llu,\n"
      "  \"clean_failures\": %llu,\n  \"silent_corruptions\": %llu,\n"
      "  \"injected_total\": %llu,\n",
      static_cast<unsigned long long>(plans),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(silent_corruptions),
      static_cast<unsigned long long>(injected_total));
  std::fprintf(f, "  \"sites\": [");
  for (usize s = 0; s < kNumFaultSites; ++s) {
    std::fprintf(
        f,
        "%s\n    {\"site\": \"%s\", \"opportunities\": %llu, "
        "\"injected\": %llu}",
        s == 0 ? "" : ",", FaultSiteName(static_cast<FaultSite>(s)),
        static_cast<unsigned long long>(sites[s].opportunities),
        static_cast<unsigned long long>(sites[s].injected));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(
      f,
      "  \"recovery\": {\"transfer_retries\": %llu, "
      "\"transfer_retry_failures\": %llu, \"watchdog_wakeups\": %llu, "
      "\"watchdog_recoveries\": %llu, \"watchdog_hang_aborts\": %llu, "
      "\"duplicate_irqs_ignored\": %llu, \"spurious_faults_ignored\": %llu, "
      "\"fault_budget_aborts\": %llu, \"tlb_parity_drops\": %llu}\n",
      static_cast<unsigned long long>(recovery.transfer_retries),
      static_cast<unsigned long long>(recovery.transfer_retry_failures),
      static_cast<unsigned long long>(recovery.watchdog_wakeups),
      static_cast<unsigned long long>(recovery.watchdog_recoveries),
      static_cast<unsigned long long>(recovery.watchdog_hang_aborts),
      static_cast<unsigned long long>(recovery.duplicate_irqs_ignored),
      static_cast<unsigned long long>(recovery.spurious_faults_ignored),
      static_cast<unsigned long long>(recovery.fault_budget_aborts),
      static_cast<unsigned long long>(recovery.tlb_parity_drops));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_faults.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
