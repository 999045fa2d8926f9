// Ablation E22 — reconfiguration-aware serving (DESIGN.md §15):
// configuration-cache slot count x affinity skip budget, over a
// design-alternating three-tenant fleet.
//
// The interesting regime is slots < distinct designs: the cache then
// behaves like a real cache (hits, misses, LRU evictions) instead of
// pinning every design. Affinity reorders the DRR ring toward resident
// designs; a skip budget of 0 keeps strict ring order.
#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace vcop {
namespace {

/// One point of the ablation grid: three tenants on three distinct
/// designs, 4 interleaved 8 KB jobs each, fair share with a 100 us slice.
bench::FleetResult Run(u32 config_slots, u32 skip_budget) {
  os::KernelConfig kernel_config = runtime::Epxa1Config();
  kernel_config.config_slots = config_slots;
  os::VcopdConfig config;
  config.policy = os::ServicePolicy::kFairShare;
  config.time_slice = 100ull * 1000 * 1000;
  config.affinity_skip_budget = skip_budget;
  std::vector<bench::TenantSpec> specs;
  for (const bench::App app :
       {bench::App::kAdpcm, bench::App::kIdea, bench::App::kVecAdd}) {
    specs.push_back({app, bench::AppName(app), 1, 8 * 1024, 4});
  }
  return bench::RunVcopdFleet(specs, kernel_config, config);
}

int Main() {
  std::printf("== Ablation: configuration slots x affinity skip budget "
              "==\n\n");

  Table table({"slots", "skips", "makespan us", "reconf", "activ",
               "cfg us", "exact"});
  table.set_title(
      "3 tenants x 3 designs x 4 jobs, fair share, 100 us slice");
  for (const u32 slots : {1u, 2u, 3u}) {
    for (const u32 budget : {0u, os::VcopdConfig{}.affinity_skip_budget}) {
      const bench::FleetResult r = Run(slots, budget);
      table.AddRow({StrFormat("%u", slots), StrFormat("%u", budget),
                    StrFormat("%.1f", ToMicroseconds(r.makespan)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.stats.reconfigurations)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          r.stats.slot_activations)),
                    StrFormat("%.1f",
                              ToMicroseconds(r.stats.total_config_time +
                                             r.stats.total_activation_time)),
                    r.outputs_exact ? "yes" : "NO"});
    }
  }
  table.Print();
  std::printf(
      "\nslots=1 is the seed fabric: every design switch is a full "
      "reconfiguration.\nskips=0 is strict ring order; the default budget lets "
      "the ring chase\nresident designs. slots=3 pins all three designs after "
      "their first load.\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
