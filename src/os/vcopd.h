// vcopd — the asynchronous multi-tenant coprocessor service daemon.
//
// The paper's system calls give one process exclusive, blocking use of
// the fabric (§3.1); §5 points at the open problem of "managing the
// reconfigurable lattice across tasks". vcopd is that service layer:
// a daemon owning the PLD and serving many tenants at once.
//
//   * Each tenant registers and receives its own AddressSpace (private
//     Process, object table, ASID). FPGA_EXECUTE becomes asynchronous:
//     Submit() validates, enqueues and returns a ticket immediately;
//     completions are observed by Poll()/Wait() or delivered through a
//     callback on the simulated timeline.
//   * Submission queues are bounded (admission control): a full queue
//     rejects with ResourceExhausted instead of growing without bound.
//   * The shared interface TLB is ASID-tagged (hw/tlb.h), so a tenant
//     switch flushes nothing: a switched-out tenant's entries and
//     frames survive until capacity evicts them, its dirty pages are
//     written back at the switch, and the VIM restores whatever entries
//     were recycled at resume (Vim::RestoreContext).
//   * Under the fair-share policy (design-affine deficit round-robin
//     over tenant weights) a job whose time slice has expired is
//     preempted at its next page-fault boundary: the daemon hands its
//     slice check to Kernel::Run, the fault stays latched in the IMU,
//     the VIM saves the interface context, and the run ends through the
//     kernel like a completion or an abort. The FIFO policy instead
//     runs jobs to completion, batching by bit-stream to amortise
//     reconfiguration.
//
// Hardware model: vcopd treats the PLD as partially reconfigurable.
// Each job's design (Kernel::Instantiate: a core and an IMU fronting the
// same dual-port RAM and the same shared TLB CAM, reused from the
// kernel's pool when a finished job of the same bit-stream retired one)
// runs through the route FPGA_EXECUTE takes
// (Kernel::Bind/Start/Run/FillReport/Retire), and switching designs
// costs the configuration-port transfer time (FpgaFabric::AcquireDesign)
// without tearing the platform down. Only one core executes at any
// instant.
#pragma once

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/field.h"
#include "base/packed_bytes.h"
#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/fabric.h"
#include "hw/tlb.h"
#include "os/address_space.h"
#include "os/kernel.h"

namespace vcop::os {

using TenantId = u32;
using Ticket = u64;

enum class ServicePolicy : u8 {
  /// Deficit round-robin over tenant weights, preferring tenants whose
  /// design is resident (bounded by VcopdConfig::affinity_skip_budget);
  /// running jobs are preempted at fault boundaries when their slice
  /// expires and another tenant is runnable.
  kFairShare,
  /// Strict arrival order, refined by greedy bit-stream batching (a
  /// queued job matching the loaded design goes first). No preemption.
  kFifoBatch,
};

std::string_view ToString(ServicePolicy policy);

struct VcopdConfig {
  ServicePolicy policy = ServicePolicy::kFairShare;
  /// Per-tenant submission-queue bound (admission control).
  u32 queue_depth = 16;
  /// Fair share: a running job becomes preemptible once its slice has
  /// held the fabric this long (checked at fault boundaries).
  Picoseconds time_slice = 200 * 1000 * 1000;  // 200 us
  /// Fair share: fabric time granted per round and unit of weight.
  Picoseconds quantum = 400 * 1000 * 1000;  // 400 us
  /// ASID tag space (including the reserved kernel tag 0).
  u32 max_asids = 64;
  /// Fair share is design-affine: when advancing the DRR ring, a
  /// runnable tenant whose design is resident in a configuration slot
  /// (it activates instead of paying a full reconfiguration) may go
  /// ahead of the strict ring-order choice. The budget is how many
  /// consecutive times one tenant may be bypassed before it becomes
  /// mandatory (starvation bound); 0 keeps strict ring order.
  u32 affinity_skip_budget = 4;
};

/// Completion record of one submitted job, and the schedule report's
/// entry for it.
struct JobResult {
  Ticket ticket = 0;
  TenantId tenant = 0;
  u32 pid = 0;  // the tenant's process
  std::string bitstream;
  Status status;
  Picoseconds submitted_at = 0;
  Picoseconds started_at = 0;   // first dispatch
  Picoseconds finished_at = 0;
  u32 preemptions = 0;
  /// Full configuration-port transfers this job paid, across every
  /// slice (initial dispatch AND resumes whose design was evicted
  /// meanwhile — a resume after eviction reconfigures again).
  u32 reconfigurations = 0;
  /// Slot activations this job paid (design was resident, only the
  /// region-select frame was rewritten).
  u32 slot_activations = 0;
  /// Configuration-port time across all slices (full configurations
  /// plus slot activations).
  Picoseconds config_time = 0;
  /// The usual decomposition (Kernel::FillReport) when status.ok(); a
  /// failed job reports only its VIM accounting (`report.vim`). `total`
  /// spans first dispatch to completion, so for a preempted job t_hw
  /// also holds the time it sat switched out while other tenants held
  /// the fabric. The TLB counters are the shared TLB's whole delta over
  /// each of the job's slices, summed (installs included).
  ExecutionReport report;

  Picoseconds turnaround() const { return finished_at - submitted_at; }
  Picoseconds wait() const { return started_at - submitted_at; }
};

/// Kept only because perfbench names the type; use JobResult.
using JobOutcome = JobResult;

/// Per-submitter fairness digest of a schedule, for starvation and
/// tail-latency analysis across competing tenants.
struct TenantFairness {
  u32 pid = 0;
  usize jobs = 0;
  Picoseconds busy = 0;  // sum of started->finished spans
  Picoseconds p50_turnaround = 0;
  Picoseconds p99_turnaround = 0;
  /// busy / makespan: the fraction of the batch this pid held the PLD.
  double makespan_share = 0.0;
};

/// Every finished job's result, packed into one record of varints
/// (PackedBytes, the codec the timeline shares) when the job finishes:
/// about 130 bytes for a service_open job, where a JobResult takes 464.
/// A record decodes to the JobResult it was packed from, every field
/// bit for bit.
class JobHistory {
 public:
  /// Issues the next ticket (1, 2, ...), unfinished until Keep.
  Ticket Open();
  /// Packs `result`, the finished job of an open ticket.
  void Keep(const JobResult& result);

  /// Whether `ticket` was issued and has finished.
  bool Finished(Ticket ticket) const;
  /// The finished job's result, decoded. Precondition: Finished(ticket).
  JobResult Get(Ticket ticket) const;
  /// Tickets issued so far.
  Ticket tickets() const { return record_at_.size(); }

 private:
  /// record_at_'s mark for an issued ticket that has not finished.
  static constexpr u32 kOpen = ~u32{0};

  PackedBytes records_;
  /// Each ticket's record offset in records_, at index ticket - 1.
  std::vector<u32> record_at_;
  /// Each design name once; a record holds its index.
  std::vector<std::string> designs_;
};

/// A schedule report's finished jobs in ticket order, decoded from the
/// daemon's history on access: it keeps the tickets, and an element is
/// a JobResult by value. Valid for the daemon's lifetime; a report that
/// must outlive its daemon keeps what it needs from the decoded values.
class JobOutcomes {
 public:
  class Iterator {
   public:
    JobResult operator*() const { return history_->Get(*ticket_); }
    Iterator& operator++() {
      ++ticket_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return ticket_ == other.ticket_;
    }

   private:
    friend class JobOutcomes;
    Iterator(const JobHistory* history,
             std::vector<Ticket>::const_iterator ticket)
        : history_(history), ticket_(ticket) {}

    const JobHistory* history_;
    std::vector<Ticket>::const_iterator ticket_;
  };

  usize size() const { return tickets_.size(); }
  JobResult operator[](usize i) const { return history_->Get(tickets_[i]); }
  Iterator begin() const { return {history_, tickets_.begin()}; }
  Iterator end() const { return {history_, tickets_.end()}; }

 private:
  friend class Vcopd;
  const JobHistory* history_ = nullptr;
  std::vector<Ticket> tickets_;
};

/// Every finished job in ticket order. Service-wide counters live in
/// VcopdStats, VimServiceStats and VcopServiceStats.
struct ScheduleReport {
  /// Decoded from the daemon's history as they are read.
  JobOutcomes outcomes;
  /// First submission to last completion.
  Picoseconds makespan = 0;

  /// Fairness digest per submitting pid, ordered by pid.
  std::vector<TenantFairness> per_pid() const;
};

struct VcopdStats {
  u64 submitted = 0;
  u64 rejected = 0;   // admission-control rejections (queue full)
  u64 completed = 0;
  u64 failed = 0;
  u64 dispatches = 0;  // slices granted (initial dispatches + resumes)
  u64 preemptions = 0;
  /// The fabric's configuration-cache counts (hw::ConfigSlotStats
  /// misses, hits, configure_time and activation_time) since the daemon
  /// was built, blocking FPGA_LOADs included: every configuration goes
  /// through the fabric's cache.
  u64 reconfigurations = 0;
  /// Configuration-cache hits that switched a dormant resident slot in
  /// (always 0 with a single slot).
  u64 slot_activations = 0;
  /// Tenants quarantined after a fault-budget or hang abort.
  u64 quarantined = 0;
  Picoseconds total_config_time = 0;
  Picoseconds total_activation_time = 0;
};

/// Every VcopdStats field by dotted name.
inline std::vector<Field> FieldsOf(const VcopdStats& s) {
  static_assert(sizeof(VcopdStats) == 11 * sizeof(u64));
  return {
      {"vcopd.submitted", s.submitted},
      {"vcopd.rejected", s.rejected},
      {"vcopd.completed", s.completed},
      {"vcopd.failed", s.failed},
      {"vcopd.dispatches", s.dispatches},
      {"vcopd.preemptions", s.preemptions},
      {"vcopd.reconfigurations", s.reconfigurations},
      {"vcopd.slot_activations", s.slot_activations},
      {"vcopd.quarantined", s.quarantined},
      {"vcopd.total_config_time_ps", s.total_config_time},
      {"vcopd.total_activation_time_ps", s.total_activation_time},
  };
}

class Vcopd {
 public:
  /// The daemon drives the kernel's platform (simulator, VIM, memories,
  /// shared TLB) through the kernel's route onto the fabric. A blocking
  /// FPGA_EXECUTE may run between the daemon's slices, but not while a
  /// job is running or preempted.
  explicit Vcopd(Kernel& kernel, VcopdConfig config = {});
  ~Vcopd();

  Vcopd(const Vcopd&) = delete;
  Vcopd& operator=(const Vcopd&) = delete;

  // ----- tenant lifecycle -----

  /// Registers a tenant with a fair-share `weight` >= 1. Fails when the
  /// ASID space is exhausted.
  Result<TenantId> RegisterTenant(std::string name, u32 weight = 1);

  /// Removes a tenant. Fails while the tenant has queued or in-flight
  /// work. Its ASID is scrubbed from the shared TLB and recycled.
  Status UnregisterTenant(TenantId tenant);

  /// Declares / removes an interface object in the tenant's own table.
  Status MapObject(TenantId tenant, hw::ObjectId id, mem::UserAddr addr,
                   u32 size_bytes, u32 elem_width, Direction direction);
  Status UnmapObject(TenantId tenant, hw::ObjectId id);

  /// Re-points already-mapped objects at new user virtual addresses,
  /// all or none (Kernel::RepointObjects: size/width/direction
  /// unchanged, the tenant's cached DMA translations shot down). The
  /// ring path's object_refs use this so one mapping can target
  /// per-submission buffers. Jobs read the table when they run, so
  /// non-empty `refs` fail with FailedPrecondition while one is queued
  /// or in flight.
  Status RepointObjects(TenantId tenant, std::span<const ObjectRef> refs);

  // ----- asynchronous execution -----

  /// Validates and enqueues a job; returns its ticket without running
  /// anything. `on_complete` (optional) fires on the simulated timeline
  /// at the job's completion instant, with the live result, before
  /// Wait/Poll observe it.
  Result<Ticket> Submit(
      TenantId tenant, const hw::Bitstream& bitstream,
      std::span<const u32> params,
      std::function<void(const JobResult&)> on_complete = nullptr);

  /// Non-blocking completion check: the result once the job finished,
  /// decoded from the history, for the daemon's lifetime; nothing while
  /// it is still queued or on the fabric, or for an unknown ticket.
  std::optional<JobResult> Poll(Ticket ticket) const;

  /// Drives the service until `ticket` completes (other tenants' work
  /// proceeds meanwhile, exactly as the daemon would schedule it).
  Result<JobResult> Wait(Ticket ticket);

  /// Drives the service until every queue is empty.
  Status RunUntilIdle();

  // ----- stepping interface (used by the ring-transport service
  //       layer, os/service.h, which interleaves slice grants with
  //       ring drains on the simulated timeline) -----

  /// Whether any tenant has queued or in-flight work.
  bool HasWork() const;

  /// Grants exactly one slice to the next tenant under the configured
  /// policy; no-op when idle.
  Status RunOne();

  /// Whether `tenant` has been quarantined (unknown tenants: false).
  bool TenantQuarantined(TenantId tenant) const;

  // ----- introspection -----

  VcopdStats stats() const;
  const VcopdConfig& config() const { return config_; }
  Kernel& kernel() { return kernel_; }
  AddressSpace* FindSpace(hw::Asid asid);
  /// Completed work as a schedule report: the finished tickets, each
  /// decoded from the history as the report is read, so the report is
  /// valid for the daemon's lifetime (per-pid digests via per_pid()).
  ScheduleReport BuildScheduleReport() const;

 private:
  /// A submitted job until it finishes. FinishJob packs its result into
  /// history_ once on_complete has run, and frees the job.
  struct Job {
    JobResult result;
    hw::Bitstream bitstream;
    std::vector<u32> params;
    std::function<void(const JobResult&)> on_complete;

    // The job's design, from Kernel::Instantiate at first dispatch. A
    // preempted job keeps it; FinishJob retires it to the kernel's pool.
    std::unique_ptr<Design> design;

    /// Shared-TLB statistics attributed to this job, accumulated as
    /// deltas over the monotonic counters between slice start/end.
    hw::TlbStats tlb_acc;
  };

  struct Tenant {
    TenantId id = 0;
    bool active = true;
    /// Set when one of the tenant's jobs exhausted its fault budget or
    /// hung the fabric: later Submits fail fast with FailedPrecondition
    /// while every other tenant keeps running.
    bool quarantined = false;
    u32 weight = 1;
    std::unique_ptr<AddressSpace> space;
    /// Submitted, not yet dispatched, in ticket order. A list, so an
    /// idle tenant's queue stores none (an empty deque holds a node).
    std::list<std::unique_ptr<Job>> queue;
    std::unique_ptr<Job> inflight;  // running or preempted
    i64 deficit = 0;  // fair-share deficit (picoseconds)
    /// Consecutive times design affinity bypassed this tenant when it
    /// was the strict ring-order choice; at the skip budget the bypass
    /// is disallowed (no-starvation bound). Reset when picked.
    u32 affinity_skips = 0;
  };

  Tenant* FindTenant(TenantId id);
  /// The tenant's oldest unfinished job: the one in flight, else its
  /// queue head; nullptr when it has none.
  static const Job* OldestJob(const Tenant& tenant);
  bool Runnable(const Tenant& tenant) const;
  bool AnyOtherRunnable(const Tenant* current) const;

  /// Next tenant to grant a slice, honouring the configured policy;
  /// nullptr when no queue has work.
  Tenant* PickNext();

  /// Grants one slice: dispatches (or resumes) the tenant's job, runs
  /// the simulation until it completes or is preempted, and settles
  /// accounting. Returns a non-OK status only for simulation failures.
  Status RunSlice(Tenant& tenant);

  /// Probes the fabric's configuration cache for `job`'s design and
  /// makes it active, paying a full configuration (cache miss) or a
  /// slot activation (hit on a dormant slot) as needed. Fails when the
  /// configuration stream errors (injected CRC fault) — the fabric
  /// keeps its previous design and the job must be failed cleanly.
  Result<Picoseconds> SwitchDesign(Job& job);

  /// Bit-stream the tenant would need next (in-flight job when
  /// preempted, else its queue head). Only called for runnable tenants.
  static const std::string& HeadDesign(const Tenant& tenant);

  /// Marks the tenant quarantined (idempotent) after a fault-budget,
  /// hang or non-convergence abort.
  void Quarantine(Tenant& tenant);
  /// Ends the tenant's in-flight job with `status`: settles its result,
  /// retires its design, runs on_complete, packs the result into the
  /// history and frees the job.
  void FinishJob(Tenant& tenant, Status status);

  Kernel& kernel_;
  VcopdConfig config_;
  AsidAllocator asids_;

  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// What a finished job keeps: its packed result.
  JobHistory history_;
  u32 next_pid_ = 2;  // pid 1 is the kernel's default space

  // The design on the fabric and the resident set live in the fabric's
  // configuration cache (hw::FpgaFabric::active_design/DesignResident).
  Tenant* current_ = nullptr;  // fair-share round-robin position
  Picoseconds slice_started_at_ = 0;

  /// The daemon's own counts; stats() adds the fabric's configuration
  /// counts since `slots_at_start_`.
  VcopdStats stats_;
  hw::ConfigSlotStats slots_at_start_;
};

}  // namespace vcop::os
