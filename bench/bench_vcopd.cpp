// Benchmarks the vcopd service daemon: multi-tenant throughput and
// tail latency under the two service policies, and tenant switches on
// the ASID-tagged TLB. Three scenarios, each gated on a deterministic
// property and written to BENCH_vcopd.json for CI:
//
//   mixed-8   8 tenants (adpcm / IDEA / vecadd) x 3 jobs each under
//             fair share; every output byte-identical to the software
//             reference despite preemptive time-multiplexing.
//   fairness  a saturating large tenant vs a small interactive tenant;
//             fair share must bound the small tenant's p99 turnaround
//             below the FIFO-batch figure.
//   asid      two contended streaming tenants switched every 50 us:
//             exact outputs, with context saves that write dirty
//             pages back eagerly.
#include <cstdio>
#include <string>
#include <vector>

#include "base/latency_histogram.h"
#include "bench/common.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::App;
using bench::FleetResult;
using bench::TenantRun;
using bench::TenantSpec;

void PrintFleetTable(const char* title, const FleetResult& fleet) {
  Table table({"tenant", "app", "w", "input", "jobs", "preempt", "p50 us",
               "p99 us", "exact"});
  table.set_title(title);
  for (const TenantRun& t : fleet.tenants) {
    table.AddRow(
        {t.spec.name, bench::AppName(t.spec.app),
         StrFormat("%u", t.spec.weight),
         bench::SizeLabel(t.spec.input_bytes), StrFormat("%u", t.completed),
         StrFormat("%u", t.preemptions),
         StrFormat("%.1f", ToMicroseconds(PercentileNearestRank(t.turnarounds, 0.5))),
         StrFormat("%.1f", ToMicroseconds(PercentileNearestRank(t.turnarounds, 0.99))),
         t.outputs_exact ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "  makespan %.1f us, %.2f jobs/sim-ms, %llu dispatches, "
      "%llu preemptions, %llu reconfigs (%.1f us config time)\n\n",
      ToMicroseconds(fleet.report.makespan), fleet.throughput(),
      static_cast<unsigned long long>(fleet.stats.dispatches),
      static_cast<unsigned long long>(fleet.stats.preemptions),
      static_cast<unsigned long long>(fleet.stats.reconfigurations),
      ToMicroseconds(fleet.stats.total_config_time));
}

void JsonTenants(std::FILE* f, const FleetResult& fleet) {
  std::fprintf(f, "[");
  for (usize i = 0; i < fleet.tenants.size(); ++i) {
    const TenantRun& t = fleet.tenants[i];
    std::fprintf(
        f,
        "%s\n      {\"tenant\": \"%s\", \"app\": \"%s\", \"weight\": %u, "
        "\"input_bytes\": %zu, \"jobs\": %u, \"preemptions\": %u, "
        "\"p50_turnaround_us\": %.3f, \"p99_turnaround_us\": %.3f, "
        "\"outputs_exact\": %s}",
        i == 0 ? "" : ",", t.spec.name.c_str(), bench::AppName(t.spec.app),
        t.spec.weight, t.spec.input_bytes, t.completed, t.preemptions,
        ToMicroseconds(PercentileNearestRank(t.turnarounds, 0.5)),
        ToMicroseconds(PercentileNearestRank(t.turnarounds, 0.99)),
        t.outputs_exact ? "true" : "false");
  }
  std::fprintf(f, "\n    ]");
}

int Main() {
  std::printf(
      "== vcopd service daemon: multi-tenant throughput, fairness, and "
      "ASID-tagged TLB ==\n\n");
  int rc = 0;

  // ----- scenario 1: 8 mixed tenants, fair share, tagged -----
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
  os::VcopdConfig fair;
  fair.policy = os::ServicePolicy::kFairShare;
  fair.time_slice = 100ull * 1000 * 1000;  // 100 us: forces preemption
  const FleetResult mixed8 =
      bench::RunVcopdFleet(mixed, runtime::Epxa1Config(), fair);
  PrintFleetTable("mixed-8: fair share, ASID-tagged TLB", mixed8);
  if (!mixed8.outputs_exact) {
    std::printf("FAIL: mixed-8 outputs diverged from software reference\n");
    rc = 1;
  }
  if (mixed8.stats.preemptions == 0) {
    std::printf("FAIL: mixed-8 never preempted (slice too generous?)\n");
    rc = 1;
  }

  // ----- scenario 2: saturating tenant vs small tenant, both policies --
  // Both tenants use the same design so the experiment isolates the
  // scheduling policy from reconfiguration cost (under mixed designs
  // the config ping-pong dominates either policy — scenario 1 shows
  // that cost explicitly). Submissions are interleaved, but each large
  // job runs far longer than a small one: under FIFO every small job
  // waits behind a large job per round, while fair share preempts the
  // large jobs at fault boundaries and must bound the small p99.
  const std::vector<TenantSpec> contended = {
      {App::kAdpcm, "large", 1, 24 * 1024, 6},
      {App::kAdpcm, "small", 1, 512, 6},
  };
  os::VcopdConfig fifo;
  fifo.policy = os::ServicePolicy::kFifoBatch;
  // The two policies are independent simulations of the same tenant
  // spec — run them side by side on the fleet runner.
  const std::vector<FleetResult> policy_runs = sim::FleetMap<FleetResult>(
      2, [&](usize i) {
        return bench::RunVcopdFleet(contended, runtime::Epxa1Config(),
                                    i == 0 ? fair : fifo);
      });
  const FleetResult& under_fair = policy_runs[0];
  const FleetResult& under_fifo = policy_runs[1];
  PrintFleetTable("fairness: fair share", under_fair);
  PrintFleetTable("fairness: FIFO + bit-stream batching", under_fifo);
  const Picoseconds small_fair =
      PercentileNearestRank(under_fair.tenants[1].turnarounds, 0.99);
  const Picoseconds small_fifo =
      PercentileNearestRank(under_fifo.tenants[1].turnarounds, 0.99);
  std::printf(
      "  small-tenant p99: %.1f us (fair share) vs %.1f us (FIFO) — "
      "%.2fx better\n\n",
      ToMicroseconds(small_fair), ToMicroseconds(small_fifo),
      small_fair > 0
          ? static_cast<double>(small_fifo) / static_cast<double>(small_fair)
          : 0.0);
  if (!under_fair.outputs_exact || !under_fifo.outputs_exact) {
    std::printf("FAIL: fairness outputs diverged\n");
    rc = 1;
  }
  if (small_fair >= small_fifo) {
    std::printf(
        "FAIL: fair share did not improve the small tenant's p99\n");
    rc = 1;
  }

  // ----- scenario 3: tenant switches on the ASID-tagged TLB -----
  const std::vector<TenantSpec> streaming = {
      {App::kAdpcm, "stream-a", 1, 12 * 1024, 2},
      {App::kAdpcm, "stream-b", 1, 12 * 1024, 2},
  };
  os::VcopdConfig switching = fair;
  switching.time_slice = 50ull * 1000 * 1000;  // many switches
  const FleetResult tagged =
      bench::RunVcopdFleet(streaming, runtime::Epxa1Config(), switching);
  PrintFleetTable("asid: tagged TLB", tagged);
  std::printf(
      "  %llu context saves, %llu eager write-backs\n\n",
      static_cast<unsigned long long>(tagged.service.context_saves),
      static_cast<unsigned long long>(
          tagged.service.pages_written_back_on_save));
  if (!tagged.outputs_exact) {
    std::printf("FAIL: asid outputs diverged\n");
    rc = 1;
  }
  if (tagged.service.context_saves == 0 ||
      tagged.service.pages_written_back_on_save == 0) {
    std::printf("FAIL: asid never saved a context with dirty pages\n");
    rc = 1;
  }

  // ----- JSON -----
  std::FILE* f = std::fopen("BENCH_vcopd.json", "w");
  VCOP_CHECK_MSG(f != nullptr, "cannot open BENCH_vcopd.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"vcopd\",\n");
  std::fprintf(
      f,
      "  \"mixed8\": {\n    \"policy\": \"fair_share\", "
      "\"makespan_us\": %.3f, \"jobs_per_sim_ms\": %.3f, "
      "\"preemptions\": %llu, \"reconfigurations\": %llu, "
      "\"config_time_us\": %.3f, \"config_share\": %.4f, "
      "\"outputs_exact\": %s,\n    \"tenants\": ",
      ToMicroseconds(mixed8.report.makespan), mixed8.throughput(),
      static_cast<unsigned long long>(mixed8.stats.preemptions),
      static_cast<unsigned long long>(mixed8.stats.reconfigurations),
      ToMicroseconds(mixed8.stats.total_config_time),
      mixed8.report.makespan > 0
          ? static_cast<double>(mixed8.stats.total_config_time) /
                static_cast<double>(mixed8.report.makespan)
          : 0.0,
      mixed8.outputs_exact ? "true" : "false");
  JsonTenants(f, mixed8);
  std::fprintf(f, "\n  },\n");
  std::fprintf(
      f,
      "  \"fairness\": {\n    \"small_p99_us_fair\": %.3f, "
      "\"small_p99_us_fifo\": %.3f, \"improvement\": %.3f,\n"
      "    \"fair_tenants\": ",
      ToMicroseconds(small_fair), ToMicroseconds(small_fifo),
      small_fair > 0
          ? static_cast<double>(small_fifo) / static_cast<double>(small_fair)
          : 0.0);
  JsonTenants(f, under_fair);
  std::fprintf(f, ",\n    \"fifo_tenants\": ");
  JsonTenants(f, under_fifo);
  std::fprintf(f, "\n  },\n");
  std::fprintf(
      f,
      "  \"asid\": {\n    \"tagged\": {\"makespan_us\": %.3f, "
      "\"context_saves\": %llu, "
      "\"pages_written_back_on_save\": %llu}\n  }\n",
      ToMicroseconds(tagged.report.makespan),
      static_cast<unsigned long long>(tagged.service.context_saves),
      static_cast<unsigned long long>(
          tagged.service.pages_written_back_on_save));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_vcopd.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
