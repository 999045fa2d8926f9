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
#include <utility>
#include <vector>

#include "bench/common.h"
#include "cp/adpcm_cp.h"
#include "cp/idea_cp.h"
#include "apps/conv2d.h"
#include "cp/conv_cp.h"
#include "cp/registry.h"
#include "os/vcopd.h"
#include "sim/fleet.h"

namespace vcop {
namespace {

using bench::kWorkloadSeed;
using runtime::FpgaSystem;
using runtime::HostBuffer;
using runtime::VcopdClient;

/// Fairness slack: design affinity may not drop the Jain index over
/// per-tenant fabric time more than this below strict ring order at
/// the same slot count. (The slot cache itself shifts the busy-time
/// distribution — config time stops padding every slice — so the gate
/// compares like for like, not against slots=3.)
constexpr double kJainSlack = 0.02;
/// Absolute fairness floor for every mode.
constexpr double kJainFloor = 0.85;

// Conv2d tenant geometry: width fixed, height = input_bytes / width.
constexpr u32 kConvWidth = 64;
constexpr u32 kConvShift = 3;  // box blur: sum 9, >> 3

enum class App : u8 { kAdpcm, kIdea, kConv };

struct TenantSpec {
  App app = App::kConv;
  std::string name;
  u32 weight = 1;
  usize input_bytes = 0;
  u32 jobs = 1;
};

struct TenantRun {
  TenantSpec spec;
  os::TenantId id = 0;
  std::vector<Picoseconds> turnarounds;
  u32 completed = 0;
  bool outputs_exact = true;

  HostBuffer<u8> in_u8;
  HostBuffer<i16> out_i16;
  HostBuffer<u8> out_u8;
  HostBuffer<u16> key_u16;
  HostBuffer<u32> coeffs_u32;
  std::vector<i16> expect_i16;
  std::vector<u8> expect_u8;

  Status SubmitOne(os::Vcopd& daemon) {
    VcopdClient client(daemon, id);
    auto on_complete = [this](const os::JobResult& r) {
      turnarounds.push_back(r.turnaround());
      ++completed;
      if (!r.status.ok()) {
        outputs_exact = false;
        return;
      }
      switch (spec.app) {
        case App::kAdpcm:
          outputs_exact &= out_i16.ToVector() == expect_i16;
          break;
        case App::kIdea:
          outputs_exact &= out_u8.ToVector() == expect_u8;
          break;
        case App::kConv:
          outputs_exact &= out_u8.ToVector() == expect_u8;
          break;
      }
    };
    const u32 n = static_cast<u32>(spec.input_bytes);
    switch (spec.app) {
      case App::kAdpcm:
        return client
            .Submit(cp::AdpcmDecodeBitstream(), {n, 0u, 0u}, on_complete)
            .status();
      case App::kIdea:
        return client
            .Submit(cp::IdeaBitstream(),
                    {n / 8, cp::IdeaCoprocessor::kModeEcb, 0u, 0u},
                    on_complete)
            .status();
      case App::kConv:
        return client
            .Submit(cp::Conv3x3Bitstream(),
                    {kConvWidth, n / kConvWidth, kConvShift}, on_complete)
            .status();
    }
    return InternalError("unreachable");
  }
};

TenantRun Stage(FpgaSystem& sys, os::Vcopd& daemon, const TenantSpec& spec,
                u64 seed) {
  TenantRun run;
  run.spec = spec;
  run.id = daemon.RegisterTenant(spec.name, spec.weight).value();
  VcopdClient client(daemon, run.id);
  const u32 bytes = static_cast<u32>(spec.input_bytes);
  switch (spec.app) {
    case App::kAdpcm: {
      bench::StagedAdpcm s = bench::StageAdpcmTenant(sys, client, bytes, seed);
      run.in_u8 = s.in;
      run.out_i16 = s.out;
      run.expect_i16 = std::move(s.expect);
      break;
    }
    case App::kIdea: {
      bench::StagedIdea s = bench::StageIdeaTenant(sys, client, bytes, seed);
      run.in_u8 = s.in;
      run.out_u8 = s.out;
      run.key_u16 = s.key;
      run.expect_u8 = std::move(s.expect);
      break;
    }
    case App::kConv: {
      const u32 height = bytes / kConvWidth;
      const std::vector<u8> image = apps::MakeTestImage(kConvWidth, height, seed);
      const apps::Conv3x3Kernel kernel = apps::BoxBlurKernel();
      run.expect_u8.resize(image.size());
      apps::Convolve3x3(image, kConvWidth, height, kernel, kConvShift,
                        run.expect_u8);
      run.in_u8 = sys.Allocate<u8>(static_cast<u32>(image.size())).value();
      run.in_u8.Fill(image);
      run.out_u8 = sys.Allocate<u8>(static_cast<u32>(image.size())).value();
      run.coeffs_u32 = sys.Allocate<u32>(9).value();
      {
        auto view = run.coeffs_u32.view();
        for (usize i = 0; i < 9; ++i) view[i] = static_cast<u32>(kernel[i]);
      }
      VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjSrc, run.in_u8,
                            os::Direction::kIn).ok());
      VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjDst, run.out_u8,
                            os::Direction::kOut).ok());
      VCOP_CHECK(client.Map(cp::Conv3x3Coprocessor::kObjKernel, run.coeffs_u32,
                            os::Direction::kIn).ok());
      break;
    }
  }
  return run;
}

// ----- modes -----

struct Mode {
  const char* name;
  u32 slots = 1;
  u32 skip_budget = os::VcopdConfig{}.affinity_skip_budget;
};

struct FleetResult {
  std::vector<TenantRun> tenants;
  os::VcopdStats stats;
  os::VimServiceStats service;
  os::ScheduleReport report;
  bool outputs_exact = true;

  u64 jobs() const {
    u64 n = 0;
    for (const TenantRun& t : tenants) n += t.completed;
    return n;
  }
  /// Jain index over per-tenant fabric time (busy spans): 1.0 = every
  /// tenant held the PLD equally long.
  double jain() const {
    double sum = 0.0, sum_sq = 0.0;
    usize n = 0;
    for (const os::TenantFairness& t : report.per_pid()) {
      const double busy = static_cast<double>(t.busy);
      sum += busy;
      sum_sq += busy * busy;
      ++n;
    }
    return sum_sq > 0.0
               ? (sum * sum) / (static_cast<double>(n) * sum_sq)
               : 0.0;
  }
};

/// Stages every tenant, submits round-robin (interleaved tickets so
/// consecutive jobs alternate designs), and drives the daemon to idle.
FleetResult RunFleet(const std::vector<TenantSpec>& specs, const Mode& mode) {
  os::KernelConfig kernel_config = runtime::Epxa1Config();
  kernel_config.config_slots = mode.slots;
  FpgaSystem sys(kernel_config);

  os::VcopdConfig config;
  config.policy = os::ServicePolicy::kFairShare;
  config.time_slice = 100ull * 1000 * 1000;  // 100 us: forces preemption
  config.affinity_skip_budget = mode.skip_budget;
  os::Vcopd daemon(sys.kernel(), config);
  sys.kernel().vim().ResetServiceStats();

  FleetResult result;
  u64 seed = kWorkloadSeed;
  for (const TenantSpec& spec : specs) {
    result.tenants.push_back(Stage(sys, daemon, spec, seed++));
  }
  u32 remaining = 0;
  for (const TenantSpec& spec : specs) remaining += spec.jobs;
  for (u32 round = 0; remaining > 0; ++round) {
    for (TenantRun& tenant : result.tenants) {
      if (round >= tenant.spec.jobs) continue;
      VCOP_CHECK_MSG(tenant.SubmitOne(daemon).ok(), "submit failed");
      --remaining;
    }
  }
  const Status status = daemon.RunUntilIdle();
  VCOP_CHECK_MSG(status.ok(), status.ToString());

  result.stats = daemon.stats();
  result.service = sys.kernel().vim().service_stats();
  result.report = daemon.BuildScheduleReport();
  for (const TenantRun& tenant : result.tenants) {
    result.outputs_exact &= tenant.outputs_exact &&
                            tenant.completed == tenant.spec.jobs;
  }
  return result;
}

void PrintModeRow(Table& table, const Mode& mode, const FleetResult& r) {
  table.AddRow(
      {mode.name, StrFormat("%u", mode.slots),
       StrFormat("%u", mode.skip_budget),
       StrFormat("%.1f", ToMicroseconds(r.report.makespan)),
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
  const double makespan = static_cast<double>(r.report.makespan);
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
      ToMicroseconds(r.report.makespan),
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
      modes.size(), [&](usize i) { return RunFleet(specs, *modes[i]); });
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
    if (runs[i].report.makespan >= strict.report.makespan) {
      std::printf("FAIL: %s makespan %.1f us not below strict ring order's "
                  "%.1f us\n",
                  modes[i]->name, ToMicroseconds(runs[i].report.makespan),
                  ToMicroseconds(strict.report.makespan));
      makespan_improved = false;
    }
  }
  const int rc = outputs_exact && reconfigs_below_strict && fairness_held &&
                         makespan_improved
                     ? 0
                     : 1;

  auto speedup = [&strict](const FleetResult& r) {
    return r.report.makespan > 0
               ? static_cast<double>(strict.report.makespan) /
                     static_cast<double>(r.report.makespan)
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
      ToMicroseconds(strict.report.makespan),
      ToMicroseconds(baseline.report.makespan), speedup(baseline),
      ToMicroseconds(slots.report.makespan), speedup(slots), strict.jain(),
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
