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
#include "cp/adpcm_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "os/vcopd.h"

namespace vcop {
namespace {

using bench::kWorkloadSeed;
using runtime::FpgaSystem;
using runtime::HostBuffer;
using runtime::VcopdClient;

constexpr u32 kBytes = 8 * 1024;
constexpr u32 kJobs = 4;

/// One point of the ablation grid: three tenants on three distinct
/// designs, interleaved submission, fair share with a 100 us slice.
struct Point {
  Picoseconds makespan = 0;
  u64 reconfigurations = 0;
  u64 slot_activations = 0;
  Picoseconds config_time = 0;
  bool exact = true;
};

Point Run(u32 config_slots, u32 skip_budget) {
  os::KernelConfig kernel_config = runtime::Epxa1Config();
  kernel_config.config_slots = config_slots;
  FpgaSystem sys(kernel_config);

  os::VcopdConfig config;
  config.policy = os::ServicePolicy::kFairShare;
  config.time_slice = 100ull * 1000 * 1000;
  config.affinity_skip_budget = skip_budget;
  os::Vcopd daemon(sys.kernel(), config);
  sys.kernel().vim().ResetServiceStats();

  Point point;

  // adpcm tenant.
  const os::TenantId adpcm_id = daemon.RegisterTenant("adpcm").value();
  VcopdClient adpcm_client(daemon, adpcm_id);
  bench::StagedAdpcm adpcm =
      bench::StageAdpcmTenant(sys, adpcm_client, kBytes, kWorkloadSeed);

  // IDEA tenant.
  const os::TenantId idea_id = daemon.RegisterTenant("idea").value();
  VcopdClient idea_client(daemon, idea_id);
  bench::StagedIdea idea =
      bench::StageIdeaTenant(sys, idea_client, kBytes, kWorkloadSeed + 1);

  // vecadd tenant.
  const os::TenantId vec_id = daemon.RegisterTenant("vecadd").value();
  VcopdClient vec_client(daemon, vec_id);
  const u32 n = kBytes / static_cast<u32>(sizeof(u32));
  std::vector<u32> a(n), b(n), expect(n);
  for (u32 i = 0; i < n; ++i) {
    a[i] = 1000003u * i + 7u;
    b[i] = 7919u * i + 3u;
    expect[i] = a[i] + b[i];
  }
  HostBuffer<u32> va = sys.Allocate<u32>(n).value();
  HostBuffer<u32> vb = sys.Allocate<u32>(n).value();
  HostBuffer<u32> vc = sys.Allocate<u32>(n).value();
  va.Fill(a);
  vb.Fill(b);
  VCOP_CHECK(vec_client.Map(cp::VecAddCoprocessor::kObjA, va,
                            os::Direction::kIn).ok());
  VCOP_CHECK(vec_client.Map(cp::VecAddCoprocessor::kObjB, vb,
                            os::Direction::kIn).ok());
  VCOP_CHECK(vec_client.Map(cp::VecAddCoprocessor::kObjC, vc,
                            os::Direction::kOut).ok());

  auto check = [&point](bool ok) { point.exact &= ok; };
  for (u32 round = 0; round < kJobs; ++round) {
    VCOP_CHECK(adpcm_client
                   .Submit(cp::AdpcmDecodeBitstream(), {kBytes, 0u, 0u},
                           [&, check](const os::JobResult& r) {
                             check(r.status.ok() &&
                                   adpcm.out.ToVector() == adpcm.expect);
                           })
                   .ok());
    VCOP_CHECK(idea_client
                   .Submit(cp::IdeaBitstream(),
                           {kBytes / 8, cp::IdeaCoprocessor::kModeEcb, 0u, 0u},
                           [&, check](const os::JobResult& r) {
                             check(r.status.ok() &&
                                   idea.out.ToVector() == idea.expect);
                           })
                   .ok());
    VCOP_CHECK(vec_client
                   .Submit(cp::VecAddBitstream(), {n},
                           [&, check, expect](const os::JobResult& r) {
                             check(r.status.ok() &&
                                   vc.ToVector() == expect);
                           })
                   .ok());
  }
  VCOP_CHECK(daemon.RunUntilIdle().ok());

  const os::VcopdStats& stats = daemon.stats();
  point.makespan = daemon.BuildScheduleReport().makespan;
  point.reconfigurations = stats.reconfigurations;
  point.slot_activations = stats.slot_activations;
  point.config_time = stats.total_config_time + stats.total_activation_time;
  return point;
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
      const Point p = Run(slots, budget);
      table.AddRow({StrFormat("%u", slots), StrFormat("%u", budget),
                    StrFormat("%.1f", ToMicroseconds(p.makespan)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.reconfigurations)),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          p.slot_activations)),
                    StrFormat("%.1f", ToMicroseconds(p.config_time)),
                    p.exact ? "yes" : "NO"});
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
