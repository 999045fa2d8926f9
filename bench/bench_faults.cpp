// Characterises the fault-injection substrate and the VIM's recovery
// machinery: N seeded random fault plans (default 256, override with
// FAULT_PLANS=<n>) run the seeded fault-plan grid (bench/common.h,
// RunGrid) across the four reference workloads. Every run must either
// complete byte-identical to the software model or fail with a clean
// Status, and leave a quiescent simulator (the grid's end-of-run audit
// aborts otherwise); a run that completes with wrong bytes — or an
// aggregate counter pattern showing the recovery paths were never
// exercised — fails the bench. Per-site opportunity/injection counts and
// the recovery-counter rollup go to BENCH_faults.json.
#include "base/fault.h"
#include "bench/common.h"
#include "os/vim.h"

namespace vcop {
namespace {

using bench::Cmp;

/// The recovery counters the rollup reports; `recovered` sums the ones
/// that show a recovery path ran.
constexpr std::string_view kRecovery[] = {
    "vim.transfer_retries",     "vim.transfer_retry_failures",
    "vim.watchdog_wakeups",     "vim.watchdog_recoveries",
    "vim.watchdog_hang_aborts", "vim.duplicate_irqs_ignored",
    "vim.spurious_faults_ignored", "vim.fault_budget_aborts",
    "vim.tlb_parity_drops"};
constexpr std::string_view kRecovered[] = {
    "vim.transfer_retries", "vim.watchdog_recoveries",
    "vim.duplicate_irqs_ignored", "vim.spurious_faults_ignored",
    "vim.tlb_parity_drops"};

void RunPlans(u64 plans, bench::Values& v) {
  struct SeedResult {
    bench::FreshRun out;
    std::vector<std::vector<Field>> sites;
  };
  const std::vector<SeedResult> results =
      sim::FleetMap<SeedResult>(plans, [](usize i) {
        const u64 seed = static_cast<u64>(i) + 1;
        FaultPlan plan = FaultPlan::Random(seed);
        SeedResult r;
        r.out = bench::RunGrid(seed, runtime::Epxa1Config(), &plan);
        for (usize s = 0; s < kNumFaultSites; ++s) {
          r.sites.push_back(FieldsOf(plan.stats(static_cast<FaultSite>(s))));
        }
        return r;
      });

  u64 completed = 0, failed = 0, silent_corruptions = 0;
  std::vector<std::vector<Field>> sites(kNumFaultSites,
                                        FieldsOf(FaultSiteStats{}));
  std::vector<Field> recovery = os::FieldsOf(os::VimServiceStats{});
  for (usize i = 0; i < results.size(); ++i) {
    const bench::FreshRun& out = results[i].out;
    if (out.status.ok() && out.exact) {
      ++completed;
    } else if (out.status.ok()) {
      ++silent_corruptions;
    } else {
      ++failed;
    }
    for (usize s = 0; s < kNumFaultSites; ++s) {
      Accumulate(sites[s], results[i].sites[s]);
    }
    Accumulate(recovery, os::FieldsOf(out.service));
  }

  v.Count("plans", plans)
      .Count("completed_exact", completed)
      .Count("clean_failures", failed)
      .Count("silent_corruptions", silent_corruptions);
  u64 injected = 0;
  for (usize s = 0; s < kNumFaultSites; ++s) {
    const std::string site =
        StrFormat("fault.%s", FaultSiteName(static_cast<FaultSite>(s)));
    v.Add(sites[s], {"opportunities", "injected"}, site);
    injected += sites[s][1].value;
  }
  v.Count("injected_total", injected);
  for (const std::string_view name : kRecovery) v.Add(recovery, {name});
  u64 recovered = 0;
  for (const std::string_view name : kRecovered) {
    recovered += static_cast<u64>(bench::FindValue(v.named, name)->number);
  }
  v.Count("recovered", recovered);
}

int Main() {
  const u64 plans = bench::EnvCount("FAULT_PLANS", 256, 1);
  bench::Bench bench("faults");
  // The row fans its plans out over the fleet itself.
  bench.Run({{StrFormat("%llu random plans",
                        static_cast<unsigned long long>(plans)),
              [plans](bench::Values& v) { RunPlans(plans, v); }}},
            1);
  std::vector<bench::Gate> gates = {
      {"", "silent_corruptions", Cmp::kEq, 0},
      {"", "completed_exact", Cmp::kGt, 0},
      {"", "injected_total", Cmp::kGt, 0},
      {"", "recovered", Cmp::kGt, 0},
  };
  // With the default mix the recovery machinery must actually run; on a
  // heavily reduced smoke sweep (< 64 plans) the rare paths may not
  // trigger, so only gate the aggregate there.
  if (plans >= 64) gates.push_back({"", "clean_failures", Cmp::kGt, 0});
  return bench.Finish(gates);
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
