// Benchmarks reconfiguration-aware serving (DESIGN.md §15): the
// multi-slot configuration cache and design-affine fair share against
// the seed's strict ring order. One design-alternating fleet (adpcm /
// IDEA / conv2d — three distinct bit-streams) is driven through three
// modes:
//
//   strict    config_slots=1, affinity_skip_budget=0 (seed schedule)
//   baseline  config_slots=1, default skip budget (design-affine DRR)
//   slots     config_slots=3: misses become slot activations
//
// Gates, written to BENCH_reconfig.json for CI:
//   * every mode's outputs byte-identical to the software reference;
//   * baseline / slots pay strictly fewer full reconfigurations than
//     strict ring order, and slots actually activates cached slots;
//   * affinity holds fairness: the baseline's Jain index over
//     per-tenant fabric time within 0.02 of strict ring order, and every
//     mode's at least 0.85;
//   * baseline and slots improve makespan over strict ring order.
#include "bench/common.h"

namespace vcop {
namespace {

using bench::App;
using bench::Cmp;

/// A row that drives `specs` through vcopd with `slots` configuration
/// slots and an affinity skip budget of `skip_budget`: fair share with a
/// 100 us slice, which forces preemption.
bench::Row Mode(const char* name, const std::vector<bench::TenantSpec>& specs,
                u32 slots,
                u32 skip_budget = os::VcopdConfig{}.affinity_skip_budget) {
  return {name, [&specs, slots, skip_budget](bench::Values& v) {
            os::KernelConfig kernel_config = runtime::Epxa1Config();
            kernel_config.config_slots = slots;
            os::VcopdConfig config;
            config.policy = os::ServicePolicy::kFairShare;
            config.time_slice = 100ull * 1000 * 1000;
            config.affinity_skip_budget = skip_budget;
            v.Count("config_slots", slots)
                .Count("affinity_skip_budget", skip_budget);
            bench::AddFleetValues(
                v, bench::RunVcopdFleet(specs, kernel_config, config));
          }};
}

int Main() {
  // Design-alternating fleet: interleaved submission means consecutive
  // tickets nearly always want a different bit-stream, the worst case
  // for a single-slot fabric. Equal per-tenant footprints keep the
  // fabric-time Jain index meaningful.
  std::vector<bench::TenantSpec> specs;
  for (u32 i = 0; i < 3; ++i) {
    specs.push_back({App::kAdpcm, StrFormat("adpcm-%u", i), 1, 8 * 1024, 3});
  }
  for (u32 i = 0; i < 3; ++i) {
    specs.push_back({App::kIdea, StrFormat("idea-%u", i), 1, 8 * 1024, 3});
  }
  for (u32 i = 0; i < 2; ++i) {
    specs.push_back({App::kConv, StrFormat("conv-%u", i), 1, 8 * 1024, 3});
  }
  bench::Bench bench("reconfig");
  bench.Run({Mode("strict", specs, 1, 0), Mode("baseline", specs, 1),
             Mode("slots", specs, 3)});
  return bench.Finish({
      {"", "outputs_exact", Cmp::kEq, 1},
      {"baseline", "vcopd.reconfigurations", Cmp::kLt, 0, "strict",
       "vcopd.reconfigurations"},
      {"slots", "vcopd.reconfigurations", Cmp::kLt, 0, "strict",
       "vcopd.reconfigurations"},
      {"slots", "vcopd.slot_activations", Cmp::kGt, 0},
      // The slot cache itself shifts the busy-time distribution (config
      // time stops padding every slice), so affinity is held to strict
      // ring order at the same slot count, not against slots=3.
      {"baseline", "jain", Cmp::kGe, -0.02, "strict", "jain"},
      {"", "jain", Cmp::kGe, 0.85},
      {"baseline", "makespan_us", Cmp::kLt, 0, "strict", "makespan_us"},
      {"slots", "makespan_us", Cmp::kLt, 0, "strict", "makespan_us"},
  });
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
