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
// Gates (rc=1 on failure), written to BENCH_reconfig.json for CI:
//   * every mode's outputs byte-identical to the software reference;
//   * baseline / slots pay strictly fewer full reconfigurations than
//     strict ring order, and slots actually activates cached slots;
//   * affinity holds fairness: the baseline's Jain index over
//     per-tenant fabric time within kJainSlack of strict ring order;
//   * baseline and slots improve makespan over strict ring order.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::App;
using bench::FleetResult;
using bench::TenantSpec;

/// Fairness slack: design affinity may not drop the Jain index over
/// per-tenant fabric time more than this below strict ring order at
/// the same slot count. (The slot cache itself shifts the busy-time
/// distribution — config time stops padding every slice — so the gate
/// compares like for like, not against slots=3.)
constexpr double kJainSlack = 0.02;
/// Absolute fairness floor for every mode.
constexpr double kJainFloor = 0.85;

// ----- modes -----

struct Mode {
  const char* name;
  u32 slots = 1;
  u32 skip_budget = os::VcopdConfig{}.affinity_skip_budget;
};

/// Drives `specs` through vcopd under `mode`: fair share with a 100 us
/// slice, which forces preemption.
FleetResult RunMode(const std::vector<TenantSpec>& specs, const Mode& mode) {
  os::KernelConfig kernel_config = runtime::Epxa1Config();
  kernel_config.config_slots = mode.slots;
  os::VcopdConfig config;
  config.policy = os::ServicePolicy::kFairShare;
  config.time_slice = 100ull * 1000 * 1000;
  config.affinity_skip_budget = mode.skip_budget;
  return bench::RunVcopdFleet(specs, kernel_config, config);
}

void PrintModeRow(Table& table, const Mode& mode, const FleetResult& r) {
  table.AddRow(
      {mode.name, StrFormat("%u", mode.slots),
       StrFormat("%u", mode.skip_budget),
       StrFormat("%.1f", ToMicroseconds(r.makespan)),
       StrFormat("%llu", static_cast<unsigned long long>(
                             r.stats.reconfigurations)),
       StrFormat("%llu",
                 static_cast<unsigned long long>(r.stats.slot_activations)),
       StrFormat("%.1f", ToMicroseconds(r.stats.total_config_time)),
       StrFormat("%llu", static_cast<unsigned long long>(
                             r.service.pages_written_back_on_save)),
       StrFormat("%.3f", r.jain()), r.outputs_exact ? "yes" : "NO"});
}

void JsonMode(std::FILE* f, const Mode& mode, const FleetResult& r) {
  const double makespan = static_cast<double>(r.makespan);
  std::fprintf(
      f,
      "  \"%s\": {\"config_slots\": %u, \"affinity_skip_budget\": %u,\n"
      "    \"makespan_us\": %.3f, \"jobs\": %llu, "
      "\"reconfigurations\": %llu, \"slot_activations\": %llu,\n"
      "    \"config_time_us\": %.3f, \"activation_time_us\": %.3f, "
      "\"config_share\": %.4f,\n"
      "    \"pages_written_back_on_save\": %llu,\n"
      "    \"jain\": %.4f, \"outputs_exact\": %s},\n",
      mode.name, mode.slots, mode.skip_budget,
      ToMicroseconds(r.makespan),
      static_cast<unsigned long long>(r.jobs()),
      static_cast<unsigned long long>(r.stats.reconfigurations),
      static_cast<unsigned long long>(r.stats.slot_activations),
      ToMicroseconds(r.stats.total_config_time),
      ToMicroseconds(r.stats.total_activation_time),
      makespan > 0
          ? static_cast<double>(r.stats.total_config_time +
                                r.stats.total_activation_time) /
                makespan
          : 0.0,
      static_cast<unsigned long long>(r.service.pages_written_back_on_save),
      r.jain(), r.outputs_exact ? "true" : "false");
}

int Main() {
  std::printf(
      "== reconfiguration-aware serving: slot cache, design affinity "
      "==\n\n");
  // Design-alternating fleet: interleaved submission means consecutive
  // tickets nearly always want a different bit-stream, the worst case
  // for a single-slot fabric. Equal per-tenant footprints keep the
  // fabric-time Jain index meaningful.
  std::vector<TenantSpec> specs;
  for (u32 i = 0; i < 3; ++i) {
    specs.push_back({App::kAdpcm, StrFormat("adpcm-%u", i), 1, 8 * 1024, 3});
  }
  for (u32 i = 0; i < 3; ++i) {
    specs.push_back({App::kIdea, StrFormat("idea-%u", i), 1, 8 * 1024, 3});
  }
  for (u32 i = 0; i < 2; ++i) {
    specs.push_back({App::kConv, StrFormat("conv-%u", i), 1, 8 * 1024, 3});
  }

  const Mode kStrict{"strict", 1, 0};
  const Mode kBaseline{"baseline", 1};
  const Mode kSlots{"slots", 3};
  const std::vector<const Mode*> modes = {&kStrict, &kBaseline, &kSlots};

  // The modes are independent simulations of the same tenant spec —
  // run them side by side on the fleet runner.
  const std::vector<FleetResult> runs = sim::FleetMap<FleetResult>(
      modes.size(), [&](usize i) { return RunMode(specs, *modes[i]); });
  const FleetResult& strict = runs[0];
  const FleetResult& baseline = runs[1];
  const FleetResult& slots = runs[2];

  Table table({"mode", "slots", "skips", "makespan us", "reconf", "activ",
               "cfg us", "eager wb", "jain", "exact"});
  table.set_title("8 tenants x 3 designs x 3 jobs, fair share, 100 us slice");
  for (usize i = 0; i < modes.size(); ++i) PrintModeRow(table, *modes[i], runs[i]);
  table.Print();
  std::printf("\n");

  // ----- gate: byte-exact outputs in every mode -----
  bool outputs_exact = true;
  for (usize i = 0; i < modes.size(); ++i) {
    if (!runs[i].outputs_exact) {
      std::printf("FAIL: %s outputs diverged from software reference\n",
                  modes[i]->name);
      outputs_exact = false;
    }
  }

  // Every mode after the first is measured against strict ring order.
  // ----- gate: affinity and the slot cache convert reconfigurations ---
  bool reconfigs_below_strict = true;
  for (usize i = 1; i < modes.size(); ++i) {
    if (runs[i].stats.reconfigurations >= strict.stats.reconfigurations) {
      std::printf(
          "FAIL: %s paid %llu full reconfigurations, not strictly below "
          "strict ring order's %llu\n",
          modes[i]->name,
          static_cast<unsigned long long>(runs[i].stats.reconfigurations),
          static_cast<unsigned long long>(strict.stats.reconfigurations));
      reconfigs_below_strict = false;
    }
  }
  if (slots.stats.slot_activations == 0) {
    std::printf("FAIL: slots never activated a cached slot\n");
    reconfigs_below_strict = false;
  }

  // ----- gate: affinity holds fairness -----
  bool fairness_held = baseline.jain() + kJainSlack >= strict.jain();
  if (!fairness_held) {
    std::printf("FAIL: baseline Jain %.3f fell below strict ring order's "
                "%.3f - %.2f\n",
                baseline.jain(), strict.jain(), kJainSlack);
  }
  for (usize i = 0; i < modes.size(); ++i) {
    if (runs[i].jain() < kJainFloor) {
      std::printf("FAIL: %s Jain %.3f below the %.2f floor\n",
                  modes[i]->name, runs[i].jain(), kJainFloor);
      fairness_held = false;
    }
  }

  // ----- gate: affinity and the slot cache improve makespan -----
  bool makespan_improved = true;
  for (usize i = 1; i < modes.size(); ++i) {
    if (runs[i].makespan >= strict.makespan) {
      std::printf("FAIL: %s makespan %.1f us not below strict ring order's "
                  "%.1f us\n",
                  modes[i]->name, ToMicroseconds(runs[i].makespan),
                  ToMicroseconds(strict.makespan));
      makespan_improved = false;
    }
  }
  const int rc = outputs_exact && reconfigs_below_strict && fairness_held &&
                         makespan_improved
                     ? 0
                     : 1;

  auto speedup = [&strict](const FleetResult& r) {
    return r.makespan > 0
               ? static_cast<double>(strict.makespan) /
                     static_cast<double>(r.makespan)
               : 0.0;
  };
  std::printf(
      "  reconfigurations: %llu strict -> %llu baseline -> %llu slots (%llu "
      "activations)\n"
      "  makespan: %.1f us strict -> %.1f us baseline (%.2fx) -> %.1f us "
      "slots (%.2fx)\n"
      "  jain: %.3f strict, %.3f baseline, %.3f slots\n\n",
      static_cast<unsigned long long>(strict.stats.reconfigurations),
      static_cast<unsigned long long>(baseline.stats.reconfigurations),
      static_cast<unsigned long long>(slots.stats.reconfigurations),
      static_cast<unsigned long long>(slots.stats.slot_activations),
      ToMicroseconds(strict.makespan),
      ToMicroseconds(baseline.makespan), speedup(baseline),
      ToMicroseconds(slots.makespan), speedup(slots), strict.jain(),
      baseline.jain(), slots.jain());

  // ----- JSON -----
  std::FILE* f = std::fopen("BENCH_reconfig.json", "w");
  VCOP_CHECK_MSG(f != nullptr, "cannot open BENCH_reconfig.json for writing");
  std::fprintf(f, "{\n  \"bench\": \"reconfig\",\n");
  for (usize i = 0; i < modes.size(); ++i) {
    JsonMode(f, *modes[i], runs[i]);
  }
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::fprintf(
      f,
      "  \"gates\": {\"outputs_exact\": %s, "
      "\"reconfigs_below_strict\": %s, \"fairness_held\": %s, "
      "\"makespan_improved\": %s, \"pass\": %s}\n}\n",
      flag(outputs_exact), flag(reconfigs_below_strict), flag(fairness_held),
      flag(makespan_improved), flag(rc == 0));
  std::fclose(f);
  std::printf("wrote BENCH_reconfig.json\n");
  return rc;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
