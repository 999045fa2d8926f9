// Benchmarks the vcopd service daemon: multi-tenant throughput and
// tail latency under the two service policies, and tenant switches on
// the ASID-tagged TLB. Three scenarios, each gated on a deterministic
// property and written to BENCH_vcopd.json for CI:
//
//   mixed8     8 tenants (adpcm / IDEA / vecadd) x 3 jobs each under
//              fair share; every output byte-identical to the software
//              reference despite preemptive time-multiplexing.
//   fair/fifo  a saturating large tenant vs a small interactive tenant
//              under each policy; fair share must bound the small
//              tenant's p99 turnaround below the FIFO-batch figure (the
//              "fairness" row holds the ratio).
//   asid       two contended streaming tenants switched every 50 us:
//              exact outputs, with context saves that write dirty
//              pages back eagerly.
#include "bench/common.h"

namespace vcop {
namespace {

using bench::App;
using bench::Cmp;
using bench::FleetResult;
using bench::TenantSpec;

/// A row that runs `specs` under `config` and reports the fleet's and
/// its tenants' values.
std::function<void(bench::Values&)> Fleet(const std::vector<TenantSpec>& specs,
                                          const os::VcopdConfig& config) {
  return [&specs, config](bench::Values& v) {
    const FleetResult fleet =
        bench::RunVcopdFleet(specs, runtime::Epxa1Config(), config);
    bench::AddFleetValues(v, fleet);
    bench::AddTenantValues(v, fleet);
  };
}

int Main() {
  std::vector<TenantSpec> mixed;
  for (u32 i = 0; i < 3; ++i) {
    mixed.push_back({App::kAdpcm, StrFormat("adpcm-%u", i), 1,
                     (4u + 2 * i) * 1024, 3});
  }
  for (u32 i = 0; i < 3; ++i) {
    mixed.push_back({App::kIdea, StrFormat("idea-%u", i), 1,
                     (8u + 4 * i) * 1024, 3});
  }
  for (u32 i = 0; i < 2; ++i) {
    mixed.push_back({App::kVecAdd, StrFormat("vecadd-%u", i), 1, 2048, 3});
  }
  // Both fairness tenants use the same design so the experiment
  // isolates the scheduling policy from reconfiguration cost (under
  // mixed designs the config ping-pong dominates either policy — mixed8
  // shows that cost explicitly). Submissions are interleaved, but each
  // large job runs far longer than a small one: under FIFO every small
  // job waits behind a large job per round, while fair share preempts
  // the large jobs at fault boundaries and must bound the small p99.
  const std::vector<TenantSpec> contended = {
      {App::kAdpcm, "large", 1, 24 * 1024, 6},
      {App::kAdpcm, "small", 1, 512, 6},
  };
  const std::vector<TenantSpec> streaming = {
      {App::kAdpcm, "stream-a", 1, 12 * 1024, 2},
      {App::kAdpcm, "stream-b", 1, 12 * 1024, 2},
  };

  os::VcopdConfig fair;
  fair.policy = os::ServicePolicy::kFairShare;
  fair.time_slice = 100ull * 1000 * 1000;  // 100 us: forces preemption
  os::VcopdConfig fifo;
  fifo.policy = os::ServicePolicy::kFifoBatch;
  os::VcopdConfig switching = fair;
  switching.time_slice = 50ull * 1000 * 1000;  // many switches
  bench::Bench bench("vcopd");
  bench.Run({{"mixed8", Fleet(mixed, fair)},
             {"fair", Fleet(contended, fair)},
             {"fifo", Fleet(contended, fifo)},
             {"asid", Fleet(streaming, switching)}});
  const char* kSmallP99 = "tenant.small.p99_turnaround_us";
  const double fair_p99 = bench.Get("fair", kSmallP99).number;
  bench::Values fairness;
  fairness.Real("small_p99_improvement",
                fair_p99 > 0 ? bench.Get("fifo", kSmallP99).number / fair_p99
                             : 0.0,
                3);
  bench.Add("fairness", std::move(fairness));
  return bench.Finish({
      {"", "outputs_exact", Cmp::kEq, 1},
      {"mixed8", "vcopd.preemptions", Cmp::kGt, 0},
      {"fair", kSmallP99, Cmp::kLt, 0, "fifo", kSmallP99},
      {"asid", "vim.context_saves", Cmp::kGt, 0},
      {"asid", "vim.pages_written_back_on_save", Cmp::kGt, 0},
  });
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
