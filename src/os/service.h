// The ring-transport service layer over vcopd.
//
// vcopd's direct Submit/Poll calls couple every tenant to the daemon:
// one call per job, one wake-up per completion, and overload turns into
// unbounded growth of whatever sits in front of the bounded tenant
// queues. VcopService replaces that edge with the virtio shape
// (os/ring.h): per-tenant split rings in simulated shared memory,
// doorbells, and explicit admission control, so thousands of tenants
// can hammer the service while the daemon keeps draining at its own
// rate.
//
// The pipeline, stage by stage — each with its own backpressure:
//
//   tenant ──Publish──▶ submission ring        (full → ResourceExhausted
//          ──Kick─────▶ doorbell                at the edge, never blocks)
//   service ─drain────▶ token bucket           (empty → drain pauses until
//                                               the next token accrues)
//           ─Submit───▶ vcopd tenant queue     (full → descriptor stays in
//                                               the ring; re-drained when a
//                                               completion frees a slot)
//           ─DRR──────▶ the fabric             (design-affine fair share)
//   service ─complete─▶ completion ring  ──▶  notify, unless suppressed
//
// Doorbell coalescing: a kick while a drain is already scheduled (or an
// admission wait is pending) is absorbed — one kick drains a whole
// batch. Completion-interrupt suppression: while a tenant's completion
// ring is suppressed, completions are pushed silently and the tenant
// polls; lifting suppression reports whether completions arrived in the
// window, the virtio re-check that closes the wake-up race.
//
// Quarantined tenants' doorbells are ignored outright — a tenant that
// wedged the fabric cannot even cause drain work.
//
// Fault model (base/fault.h): kDoorbellLost drops a kick between tenant
// and service — the published descriptors survive in shared memory and
// the service's re-poll watchdog (armed only under a non-empty fault
// plan, like the VIM's) rescues them. kDescriptorCorrupt damages a
// descriptor while it sits in the ring; the drain-time checksum check
// completes it with a clean error instead of executing garbage.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <vector>

#include "base/field.h"
#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/fabric.h"
#include "os/ring.h"
#include "os/vcopd.h"

namespace vcop::os {

/// Deterministic integer token bucket. Budget is kept in rate·ps units
/// (one token = kPicosecondsPerSecond of budget), so accrual is exact —
/// no floating point anywhere near admission decisions.
class TokenBucket {
 public:
  /// `rate` = tokens per simulated second (0 = unlimited), `burst` =
  /// bucket capacity. A fresh bucket starts full.
  TokenBucket(u64 rate, u32 burst, Picoseconds now);

  /// Accrues up to `now`, then takes one token if available.
  bool TryTake(Picoseconds now);

  /// Returns a taken token (capped at capacity) — used when a job
  /// passed admission but the next backpressure stage refused it.
  void Refund();

  /// Earliest instant at which TryTake will succeed (`now` when it
  /// would succeed immediately). Pre: rate > 0 or tokens available.
  Picoseconds NextTokenAt(Picoseconds now);

  bool unlimited() const { return rate_ == 0; }

 private:
  void Accrue(Picoseconds now);

  u64 rate_;
  unsigned __int128 capacity_;  // burst, in budget units
  unsigned __int128 budget_;
  Picoseconds last_ = 0;
};

/// Simulated latency between a doorbell write and the service seeing it
/// (the kick crosses the interconnect as a posted write).
inline constexpr Picoseconds kDoorbellLatency = 200'000;  // 200 ns
/// Re-poll watchdog period: under a non-empty fault plan the service
/// periodically re-scans attached rings for descriptors whose doorbell
/// never arrived. Matches the VIM watchdog's period.
inline constexpr Picoseconds kRepollPeriod = 1'000'000'000;  // 1 ms

struct VcopServiceStats {
  u64 doorbell_kicks = 0;       // kicks observed (before any filtering)
  u64 doorbells_coalesced = 0;  // absorbed into an already-pending drain
  u64 doorbells_ignored = 0;    // from quarantined tenants
  u64 doorbells_lost = 0;       // injected kDoorbellLost drops
  u64 doorbells_recovered = 0;  // stale rings drained by the watchdog
  u64 drains = 0;               // drain batches that admitted >= 1 job
  u64 drained_jobs = 0;         // descriptors handed to the daemon
  u64 max_batch = 0;            // largest single-drain admission count
  u64 admission_deferrals = 0;  // drains paused on an empty bucket
  u64 daemon_backpressure = 0;  // drains paused on a full tenant queue
  u64 descriptors_rejected = 0;  // corrupt/malformed, completed cleanly
  u64 completions_pushed = 0;
  u64 completions_notified = 0;
  u64 completions_suppressed = 0;  // pushed while interrupts suppressed
  u64 repoll_ticks = 0;
};

/// Every VcopServiceStats field by dotted name.
inline std::vector<Field> FieldsOf(const VcopServiceStats& s) {
  static_assert(sizeof(VcopServiceStats) == 15 * sizeof(u64));
  return {
      {"svc.doorbell_kicks", s.doorbell_kicks},
      {"svc.doorbells_coalesced", s.doorbells_coalesced},
      {"svc.doorbells_ignored", s.doorbells_ignored},
      {"svc.doorbells_lost", s.doorbells_lost},
      {"svc.doorbells_recovered", s.doorbells_recovered},
      {"svc.drains", s.drains},
      {"svc.drained_jobs", s.drained_jobs},
      {"svc.max_batch", s.max_batch},
      {"svc.admission_deferrals", s.admission_deferrals},
      {"svc.daemon_backpressure", s.daemon_backpressure},
      {"svc.descriptors_rejected", s.descriptors_rejected},
      {"svc.completions_pushed", s.completions_pushed},
      {"svc.completions_notified", s.completions_notified},
      {"svc.completions_suppressed", s.completions_suppressed},
      {"svc.repoll_ticks", s.repoll_ticks},
  };
}

class VcopService {
 public:
  /// Layers the ring transport over `daemon`. Ring sizing and the
  /// admission defaults come from the daemon's platform file
  /// (KernelConfig::service).
  explicit VcopService(Vcopd& daemon) : daemon_(daemon) {}

  VcopService(const VcopService&) = delete;
  VcopService& operator=(const VcopService&) = delete;

  // ----- design table -----

  /// Registers a design and returns its ring-descriptor id (dedupes by
  /// name: re-registering a known design returns the existing id).
  u32 RegisterDesign(const hw::Bitstream& bitstream);

  // ----- tenant attach -----

  /// Builds the tenant's ring pair and token bucket. Rate/burst
  /// override the service defaults when given. The tenant must already
  /// be registered with the daemon.
  Status AttachTenant(TenantId tenant,
                      std::optional<u64> admit_rate = {},
                      std::optional<u32> admit_burst = {});

  // ----- tenant-side operations (shared-memory writes + doorbell) ---

  /// Publishes one descriptor into the tenant's submission ring. Full
  /// ring: ResourceExhausted immediately (edge backpressure). Does NOT
  /// kick — batch several publishes under one Kick.
  Status Publish(TenantId tenant, const RingDescriptor& descriptor);

  /// Doorbell write: schedules a drain of the tenant's submission ring
  /// unless one is already pending (coalesced), the tenant is
  /// quarantined (ignored), or the kick is lost to fault injection.
  Status Kick(TenantId tenant);

  bool HasCompletions(TenantId tenant) const;
  /// Oldest unreaped completion; FailedPrecondition when none pending.
  Result<CompletionDescriptor> Reap(TenantId tenant);

  /// Sets completion-interrupt suppression. Returns true when
  /// completions were already pending as suppression was lifted — the
  /// caller must re-poll before sleeping (notifications for those were
  /// elided; see CompletionRing::SetSuppressed).
  bool SetInterruptSuppression(TenantId tenant, bool suppressed);

  /// Installs the tenant's completion "interrupt": invoked once per
  /// completion pushed while suppression is off.
  void SetCompletionNotifier(TenantId tenant, std::function<void()> fn);

  // ----- service side -----

  /// Drives rings + daemon until no work remains anywhere: queued
  /// descriptors, pending drains/admission waits, daemon slices and
  /// scheduled arrivals all settle. Restores the kernel VIM binding.
  Status RunUntilQuiescent();

  const VcopServiceStats& stats() const { return stats_; }
  const ServiceTuning& config() const {
    return daemon_.kernel().config().service;
  }
  Vcopd& daemon() { return daemon_; }
  /// Producer/consumer counters of a tenant's submission ring (nullptr
  /// when the tenant was never attached).
  const RingStats* submission_stats(TenantId tenant) const;

  /// The daemon's schedule report, valid while the daemon lives.
  ScheduleReport BuildScheduleReport() const {
    return daemon_.BuildScheduleReport();
  }

 private:
  struct Port {
    TenantId tenant = 0;
    SubmissionRing sq;
    CompletionRing cq;
    TokenBucket bucket;
    /// A drain (doorbell or admission retry) is already scheduled;
    /// kicks arriving meanwhile are coalesced into it.
    bool drain_scheduled = false;
    std::function<void()> notify;
    /// Completions that did not fit the completion ring; drained back
    /// into it as the tenant reaps. A list, so an idle port stores none.
    std::list<CompletionDescriptor> overflow;

    Port(TenantId id, u32 entries, u64 rate, u32 burst, Picoseconds now)
        : tenant(id), sq(entries), cq(entries), bucket(rate, burst, now) {}
  };

  Port* FindPort(TenantId tenant);
  const Port* FindPort(TenantId tenant) const;

  void ScheduleDrain(Port& port, Picoseconds delay);
  void DrainPort(Port& port);
  /// Consumes the head descriptor without running it and completes it
  /// at `now` with error `code`.
  void RejectHead(Port& port, ErrorCode code, Picoseconds now);
  void PushCompletion(Port& port, const CompletionDescriptor& completion);
  void OnJobComplete(Port& port, u64 cookie, const JobResult& result);
  void ArmRepoll();
  void RepollTick();
  bool AnyTransportWork() const;

  Vcopd& daemon_;
  std::vector<hw::Bitstream> designs_;
  std::vector<std::unique_ptr<Port>> ports_;
  bool repoll_armed_ = false;
  VcopServiceStats stats_;
};

}  // namespace vcop::os
