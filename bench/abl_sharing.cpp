// Ablation: sharing the PLD across tasks (§5's complementary problem).
//
// Two vcopd tenants contend for the single fabric: "audio" submits 4
// adpcmdecode jobs of 8 KB and "crypto" 4 IDEA jobs of 16 KB,
// interleaved. Reconfiguration costs tens of milliseconds on the EPXA1's
// configuration port — the same order as whole executions — so the
// service order decides how much of the machine the port eats. No order
// preempts (1 s slice): strict ring order (fair share, skip budget 0)
// alternates the tenants; fifo-batch and the default design-affine fair
// share both let a job matching the loaded design go first.
//
// Exits 1 unless every output is byte-exact and both batching orders
// reconfigure strictly less and finish strictly sooner than strict ring
// order.
#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace vcop {
namespace {

constexpr u32 kJobsPerTenant = 4;
constexpr u32 kAdpcmBytes = 8 * 1024;
constexpr u32 kIdeaBytes = 16 * 1024;

struct Order {
  const char* name;
  os::ServicePolicy policy;
  u32 skip_budget;
};

bench::FleetResult RunOrder(const Order& order) {
  os::VcopdConfig config;
  config.policy = order.policy;
  config.time_slice = kPicosecondsPerSecond;
  config.affinity_skip_budget = order.skip_budget;
  return bench::RunVcopdFleet(
      {{bench::App::kAdpcm, "audio", 1, kAdpcmBytes, kJobsPerTenant},
       {bench::App::kIdea, "crypto", 1, kIdeaBytes, kJobsPerTenant}},
      runtime::Epxa1Config(), config);
}

/// Mean job turnaround over the whole schedule.
Picoseconds MeanTurnaround(const os::ScheduleReport& report) {
  Picoseconds sum = 0;
  for (const os::JobResult& o : report.outcomes) sum += o.turnaround();
  return sum / report.outcomes.size();
}

int Main() {
  std::printf(
      "== Ablation: sharing the PLD across tasks (Section 5's "
      "complementary problem) ==\n\n");
  const Order orders[] = {
      {"strict ring order", os::ServicePolicy::kFairShare, 0},
      {"fifo-batch", os::ServicePolicy::kFifoBatch, 0},
      {"fair share", os::ServicePolicy::kFairShare,
       os::VcopdConfig{}.affinity_skip_budget},
  };

  Table table({"order", "reconfigs", "config ms", "makespan ms",
               "mean turnaround ms", "config share", "exact"});
  table.set_title(
      "2 vcopd tenants (4x adpcm 8 KB + 4x IDEA 16 KB, interleaved), one "
      "EPXA1 fabric, no preemption");
  std::vector<bench::FleetResult> runs;
  for (const Order& order : orders) {
    const bench::FleetResult& run = runs.emplace_back(RunOrder(order));
    table.AddRow(
        {order.name,
         StrFormat("%llu",
                   static_cast<unsigned long long>(run.stats.reconfigurations)),
         runtime::Ms(run.stats.total_config_time),
         runtime::Ms(run.report.makespan),
         runtime::Ms(MeanTurnaround(run.report)),
         StrFormat("%.0f%%",
                   100.0 * static_cast<double>(run.stats.total_config_time) /
                       static_cast<double>(run.report.makespan)),
         run.outputs_exact ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n");

  bool pass = runs[0].outputs_exact;
  for (usize i = 1; i < runs.size(); ++i) {
    pass &= runs[i].outputs_exact &&
            runs[i].stats.reconfigurations <
                runs[0].stats.reconfigurations &&
            runs[i].report.makespan < runs[0].report.makespan;
  }
  std::printf(
      "%s: batching by design must reconfigure less and finish sooner than "
      "strict\nring order, with every output byte-exact. The paper calls "
      "lattice sharing\n'orthogonal and complementary' to interface "
      "virtualisation (§5): the jobs run\nthrough the unchanged VIM.\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
