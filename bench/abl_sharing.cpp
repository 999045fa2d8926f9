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
#include "cp/registry.h"
#include "os/vcopd.h"

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

struct OrderRun {
  os::VcopdStats stats;
  Picoseconds makespan = 0;
  Picoseconds mean_turnaround = 0;
  bool exact = true;
};

OrderRun RunOrder(const Order& order) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  os::VcopdConfig config;
  config.policy = order.policy;
  config.time_slice = kPicosecondsPerSecond;
  config.affinity_skip_budget = order.skip_budget;
  os::Vcopd daemon(sys.kernel(), config);
  runtime::VcopdClient audio(daemon, daemon.RegisterTenant("audio").value());
  runtime::VcopdClient crypto(daemon,
                              daemon.RegisterTenant("crypto").value());
  bench::StagedAdpcm adpcm =
      bench::StageAdpcmTenant(sys, audio, kAdpcmBytes, bench::kWorkloadSeed);
  bench::StagedIdea idea =
      bench::StageIdeaTenant(sys, crypto, kIdeaBytes, bench::kWorkloadSeed);

  // Each completion checks its output, then clears it so the tenant's
  // next job has to write every byte again.
  OrderRun run;
  auto check_adpcm = [&](const os::JobResult& r) {
    run.exact &= r.status.ok() && adpcm.out.ToVector() == adpcm.expect;
    adpcm.out.Fill(std::vector<i16>(adpcm.expect.size()));
  };
  auto check_idea = [&](const os::JobResult& r) {
    run.exact &= r.status.ok() && idea.out.ToVector() == idea.expect;
    idea.out.Fill(std::vector<u8>(idea.expect.size()));
  };
  for (u32 i = 0; i < kJobsPerTenant; ++i) {
    VCOP_CHECK(audio.Submit(cp::AdpcmDecodeBitstream(),
                            {kAdpcmBytes, 0u, 0u}, check_adpcm)
                   .ok());
    VCOP_CHECK(crypto.Submit(cp::IdeaBitstream(),
                             {kIdeaBytes / apps::kIdeaBlockBytes,
                              cp::IdeaCoprocessor::kModeEcb, 0u, 0u},
                             check_idea)
                   .ok());
  }
  const Status status = daemon.RunUntilIdle();
  VCOP_CHECK_MSG(status.ok(), status.ToString());

  run.stats = daemon.stats();
  run.exact &= run.stats.completed == 2 * kJobsPerTenant;
  const os::ScheduleReport report = daemon.BuildScheduleReport();
  run.makespan = report.makespan;
  for (const os::JobOutcome& o : report.outcomes) {
    run.mean_turnaround += o.turnaround();
  }
  run.mean_turnaround /= report.outcomes.size();
  return run;
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
  std::vector<OrderRun> runs;
  for (const Order& order : orders) {
    const OrderRun& run = runs.emplace_back(RunOrder(order));
    table.AddRow(
        {order.name,
         StrFormat("%llu",
                   static_cast<unsigned long long>(run.stats.reconfigurations)),
         runtime::Ms(run.stats.total_config_time), runtime::Ms(run.makespan),
         runtime::Ms(run.mean_turnaround),
         StrFormat("%.0f%%",
                   100.0 * static_cast<double>(run.stats.total_config_time) /
                       static_cast<double>(run.makespan)),
         run.exact ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n");

  bool pass = runs[0].exact;
  for (usize i = 1; i < runs.size(); ++i) {
    pass &= runs[i].exact &&
            runs[i].stats.reconfigurations <
                runs[0].stats.reconfigurations &&
            runs[i].makespan < runs[0].makespan;
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
