// Deterministic fault-injection substrate.
//
// A FaultPlan is a seeded description of which hardware misbehaviours
// fire, and when. Hardware models hold an optional `FaultPlan*`; at
// every point where the real device could fail (an AHB transfer, an
// interrupt delivery, a TLB entry write, ...) they ask
// `plan->ShouldInject(site)`. Each call counts one *opportunity* for
// that site; the plan decides — from a fixed schedule ("the 3rd AHB
// transfer errors") or a seeded Bernoulli draw — whether the fault
// fires. With no plan installed (the default), every hook is a null
// pointer test and the simulation is bit-identical to the fault-free
// engine.
//
// Determinism: the plan owns its own Rng, and opportunities are counted
// in simulation order, which is itself deterministic. Running the same
// workload under the same plan therefore injects the exact same faults
// at the exact same points, making every torture-test failure
// replayable from its seed alone.
#pragma once

#include <array>

#include "base/field.h"
#include "base/rng.h"
#include "base/types.h"

namespace vcop {

/// Where a fault can be injected. One enumerator per distinct hardware
/// failure mode modelled; see DESIGN.md §9 for the taxonomy.
enum class FaultSite : u8 {
  kAhbError = 0,    // AHB transfer aborts with a bus error (no data moved)
  kAhbRetry,        // AHB slave issues RETRY; the beat is re-run (time only)
  kIrqDrop,         // an interrupt edge is lost before reaching the CPU
  kIrqDuplicate,    // an interrupt edge is seen twice by the CPU
  kTlbParity,       // a TLB entry write is corrupted (parity bit records it)
  kSpuriousFault,   // the IMU re-raises a page-fault IRQ it already raised
  kCpStall,         // the coprocessor port stalls for extra cycles
  kCpHang,          // the coprocessor wedges: no response ever arrives
  kConfigError,     // configuration-port programming fails
  kDoorbellLost,    // a tenant's doorbell write never reaches the service
  kDescriptorCorrupt,  // a submission-ring descriptor is damaged in
                       // shared memory between publish and drain
  kIommuTranslationFault,  // the IOMMU's page walk fails transiently for
                           // one DMA access (serviced via the VIM retry
                           // path like a bus error)
  kIotlbCorrupt,    // an IO-TLB entry is damaged at rest; detected at use
                    // (parity), dropped and re-walked transparently
  kNumSites,        // sentinel — keep last
};

constexpr usize kNumFaultSites = static_cast<usize>(FaultSite::kNumSites);

/// Returns a short stable name for a site ("ahb_error", "irq_drop", ...).
const char* FaultSiteName(FaultSite site);

/// Per-site bookkeeping, readable after a run for reporting.
struct FaultSiteStats {
  u64 opportunities = 0;  // times the hardware asked
  u64 injected = 0;       // times the plan said "fire"
};

/// Every FaultSiteStats field by name.
inline std::vector<Field> FieldsOf(const FaultSiteStats& s) {
  static_assert(sizeof(FaultSiteStats) == 2 * sizeof(u64));
  return {{"opportunities", s.opportunities}, {"injected", s.injected}};
}

class FaultPlan {
 public:
  /// The default plan never injects anything.
  FaultPlan() = default;

  /// A randomized plan for the torture harness: each site is armed with
  /// a probability scaled by `intensity` (1.0 = the default mix). The
  /// catastrophic sites (kCpHang, kConfigError) are schedule-driven and
  /// rare — armed on a small fraction of seeds, at a random nth
  /// opportunity — because a per-opportunity probability would wedge
  /// nearly every run.
  static FaultPlan Random(u64 seed, double intensity = 1.0);

  /// Arms a one-shot fault at the `nth` opportunity for `site`
  /// (1-based). Multiple calls accumulate (up to a small fixed number
  /// of slots per site).
  void At(FaultSite site, u64 nth);

  /// Arms a Bernoulli fault: every opportunity for `site` fires with
  /// probability `p`, drawn from the plan's seeded Rng.
  void WithProbability(FaultSite site, double p);

  /// True if no fault is armed anywhere — i.e. installing this plan is
  /// guaranteed to be behaviour- and timing-neutral.
  bool empty() const;

  /// Counts an opportunity for `site` and decides whether the fault
  /// fires there. Called by the hardware models only.
  bool ShouldInject(FaultSite site);

  const FaultSiteStats& stats(FaultSite site) const {
    return stats_[static_cast<usize>(site)];
  }
  u64 total_injected() const;
  u64 seed() const { return seed_; }

 private:
  struct SiteConfig {
    double probability = 0.0;
    // One-shot schedule slots (opportunity ordinals, 1-based; 0 = unused).
    std::array<u64, 4> schedule{};
    u32 scheduled = 0;
  };

  std::array<SiteConfig, kNumFaultSites> sites_{};
  std::array<FaultSiteStats, kNumFaultSites> stats_{};
  u64 seed_ = 0;
  bool any_armed_ = false;
  Rng rng_{0};
};

}  // namespace vcop
