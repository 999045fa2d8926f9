// The Virtual Interface Manager — the paper's central OS contribution.
//
// "As the VMM does, a Virtual Interface Manager (VIM) handles the
// translation unit and the content of the interface memory. The IMU
// sends an interrupt to the OS when the VIM needs to provide data to
// the coprocessor through the interface." (§2.1)
//
// The VIM implements the two interrupt services of §3.3:
//
//   Page Fault — decode AR, find the faulting (object, page); if the
//   page is resident but unmapped in the TLB, refill the TLB; otherwise
//   allocate a frame (evicting a victim by the configured policy,
//   writing it back iff dirty), load the page from user space unless
//   the object was mapped OUT, install the translation, then let the
//   IMU restart the translation.
//
//   End of Operation — copy back to user space all dirty data residing
//   in the dual-port memory and wake the caller.
//
// All state changes are applied functionally at interrupt time (the
// coprocessor is stalled and cannot observe them) while their *cost*
// is modelled by scheduling the IMU restart / process wake-up after the
// computed service time. The cost is split the way the paper reports
// it: time transferring data (DP management) vs. time decoding the
// fault and updating translations (IMU management).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/fault.h"
#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/imu.h"
#include "mem/transfer.h"
#include "mem/user_memory.h"
#include "os/address_space.h"
#include "os/calibration.h"
#include "os/object_table.h"
#include "os/page_manager.h"
#include "os/policy.h"
#include "os/timeline.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace vcop::os {

/// What the VIM does on the CPU while the coprocessor executes (§3.3:
/// "allowing overlapping of processor and coprocessor execution"):
///
///   kNone   — demand paging only; nothing runs in the background.
///   kClean  — background cleaning: each fault service queues write-backs
///             of cold dirty pages, so later evictions find clean victims.
///
/// The paper's other suggestion, "speculative actions as prefetching"
/// (§3.3), is not modelled: DESIGN.md §10 records why it went.
enum class PrefetchKind : u8 { kNone, kClean };

std::string_view ToString(PrefetchKind kind);

struct VimConfig {
  /// Page replacement (§3.3). The default, working-set-guarded FIFO,
  /// decides exactly like FIFO on sequential faults that are not
  /// re-faults of pages evicted after use.
  PolicyKind policy = PolicyKind::kWsFifo;
  /// Background work on the CPU: none, or cleaning (PrefetchKind).
  PrefetchKind prefetch = PrefetchKind::kNone;
  /// How pages move between user memory and the dual-port RAM: the
  /// paper's double copy, single copy, or zero-copy DMA through the
  /// IOMMU (DESIGN.md §13). Only the transfer engine interprets it.
  mem::CopyMode copy_mode = mem::CopyMode::kDoubleCopy;
  /// Seed for the random replacement policy.
  u64 seed = 1;
};

// ----- fault recovery (active only under an installed FaultPlan) -----

/// Attempts per page transfer before the service gives up and the run
/// fails cleanly. Each failed attempt adds an exponential backoff.
inline constexpr u32 kTransferRetryLimit = 4;
/// Recovery actions (transfer retries, watchdog recoveries) one
/// execution may consume before the VIM aborts it with
/// ResourceExhausted instead of fighting a dying device forever.
inline constexpr u32 kFaultBudget = 64;
/// Interrupt watchdog period on the simulated timeline: when no
/// progress signal arrives for this long, the VIM re-polls SR to
/// recover lost interrupts (and, after repeated silent periods,
/// declares the coprocessor hung). Armed only for non-empty plans, so
/// fault-free runs schedule no extra events.
inline constexpr Picoseconds kWatchdogTimeout = 1'000'000'000;  // 1 ms

/// Service-wide counters, independent of which space was attached:
/// context switches and fault recovery. Per-space counters live in
/// VimAccounting.
struct VimServiceStats {
  u64 context_saves = 0;
  u64 context_restores = 0;
  /// Always 0: a resume re-installs no TLB entry (a switched-out
  /// tenant's entries stay tagged in the TLB, and a fault refills any
  /// that another tenant recycled). Kept because perfbench reports it.
  u64 tlb_entries_restored = 0;
  /// Dirty pages eagerly written back during SaveContext (they stay
  /// resident and clean, so later cross-tenant eviction is free).
  u64 pages_written_back_on_save = 0;

  // ----- fault recovery (see DESIGN.md §9) -----

  /// AHB transfers re-run after a bus error.
  u64 transfer_retries = 0;
  /// Transfers abandoned after kTransferRetryLimit attempts.
  u64 transfer_retry_failures = 0;
  /// Watchdog timer expiries (benign ticks included).
  u64 watchdog_wakeups = 0;
  /// Lost interrupts recovered by the watchdog's SR re-poll.
  u64 watchdog_recoveries = 0;
  /// Runs aborted because the watchdog saw no progress at all.
  u64 watchdog_hang_aborts = 0;
  /// Interrupt edges ignored because their service was already pending
  /// or done (duplicate-delivery safety).
  u64 duplicate_irqs_ignored = 0;
  /// Page-fault edges ignored because SR showed no pending fault.
  u64 spurious_faults_ignored = 0;
  /// Executions aborted after exhausting their per-request fault budget.
  u64 fault_budget_aborts = 0;
  /// TLB entries the hardware discarded on a failed parity check.
  u64 tlb_parity_drops = 0;
};

class Vim {
 public:
  Vim(const CostModel& costs, mem::PageGeometry geometry,
      mem::DualPortRam& dp_ram, mem::UserMemory& user_memory,
      sim::Simulator& sim);

  /// Applies a configuration (policy, background work, copy mode). May
  /// be called between executions. A custom policy instance goes
  /// through page_manager().SetPolicy; Configure reinstalls a built-in.
  void Configure(const VimConfig& config);

  /// Binds the IMU of the design about to run (Kernel::Bind, before
  /// every FPGA_EXECUTE and every vcopd slice); nullptr unbinds.
  void BindImu(hw::Imu* imu);

  /// Attaches the address space the VIM operates on (Kernel::Bind:
  /// the kernel's default space for FPGA_EXECUTE, a tenant's for a
  /// vcopd slice). Must outlive the attachment.
  void AttachSpace(AddressSpace* space);
  AddressSpace* space() { return space_; }

  ObjectTable& objects() { return space_->objects(); }
  const ObjectTable& objects() const { return space_->objects(); }

  /// Prepares an execution: checks that the objects lie in user memory,
  /// flushes the attached space's frames and TLB entries (other spaces'
  /// stay resident), resets the TLB recycle cursor, programs the IMU
  /// object descriptor table, writes the scalar `params` into the
  /// parameter page and maps it. Returns the setup cost on success.
  Result<Picoseconds> PrepareExecution(std::span<const u32> params);

  /// Interrupt services (wired to the InterruptLine by the kernel).
  void OnPageFault();
  void OnEndOfOperation();

  // ----- preemptive context switching (vcopd) -----

  /// Restores the context a preemption saved: re-materialises the
  /// parameter page if it was live. The tenant's translations stayed
  /// in the TLB under its ASID; a fault refills any that another
  /// tenant recycled. Returns the service time (charged to the space).
  Picoseconds RestoreContext();

  /// Drops every frame, TLB entry and IO-TLB entry owned by `asid`,
  /// discarding dirty data: partial results of an aborted or torn-down
  /// run never reach user memory. Free in simulated time.
  void FlushAsid(hw::Asid asid);

  /// Consulted at each fault *before* servicing it; returning true
  /// preempts: the VIM saves context instead of mapping the page, and
  /// the run ends preempted. Kernel::Run installs it for one run;
  /// unset = never preempt (FPGA_EXECUTE).
  void set_preempt_check(std::function<bool()> check) {
    preempt_check_ = std::move(check);
  }

  /// Resolves a foreign ASID to its space (owner of a frame the current
  /// tenant is evicting). Required for multi-tenant operation.
  void set_space_resolver(std::function<AddressSpace*(hw::Asid)> resolver) {
    space_resolver_ = std::move(resolver);
  }

  const VimServiceStats& service_stats() const { return service_stats_; }
  void ResetServiceStats() { service_stats_ = VimServiceStats{}; }

  /// The one way a run ends, installed by Kernel::Bind: OK once the
  /// end-of-operation service (write-backs included) is over; OK and
  /// `preempted` once a fault's decode and context save are over; the
  /// failure at once when the run aborts (Abort).
  void set_end_handler(std::function<void(Status, bool preempted)> handler) {
    on_end_ = std::move(handler);
  }

  /// Optional event timeline (owned by the kernel); nullptr disables.
  void set_timeline(TimelineRecorder* timeline) { timeline_ = timeline; }

  /// Fails the attached space's run with `status`: stops its background
  /// work and the IMU, then calls the end handler. The VIM's own
  /// failures end here, and so does a run the kernel gives up on.
  void Abort(Status status);

  // ----- fault injection and recovery (DESIGN.md §9) -----

  /// Installs (or clears) the fault plan. Threads it into the transfer
  /// engine and enables the interrupt watchdog for non-empty plans.
  /// With no plan (or an empty one) every recovery path is dormant and
  /// the VIM is bit-identical to the fault-free engine.
  void InstallFaultPlan(FaultPlan* plan);
  FaultPlan* fault_plan() { return fault_plan_; }

  /// True when the last failure was a device fault (budget exhaustion,
  /// hang abort, transfer-retry exhaustion) rather than an application
  /// error — vcopd quarantines the tenant on these. Cleared by
  /// PrepareExecution.
  bool fault_abort() const { return fault_abort_; }

  /// Progress signal for the watchdog's hang detector (typically the
  /// coprocessor's cycle counter). Without one the watchdog falls back
  /// to IMU access/fault counts alone.
  void set_progress_probe(std::function<u64()> probe) {
    progress_probe_ = std::move(probe);
  }

  /// Wired to Tlb::set_parity_drop_hook by the kernel: keeps the dropped
  /// entry's dirty bit (KeepDirty), so the follow-up fault's write-back
  /// path stays correct, and counts the drop.
  void OnTlbParityDrop(const hw::TlbEntry& dropped);

  const VimAccounting& accounting() const { return space_->accounting; }
  const VimConfig& config() const { return config_; }
  const CostModel& costs() const { return costs_; }
  PageManager& page_manager() { return pages_; }
  mem::TransferEngine& transfer_engine() { return transfers_; }

 private:
  /// Time one interrupt service spends, split the way the paper reports
  /// it: transferring data (DP management) and decoding faults and
  /// updating translations (IMU management).
  struct ServiceTime {
    Picoseconds dp = 0;
    Picoseconds imu = 0;
    Picoseconds total() const { return dp + imu; }
  };

  /// Charges `cost` to the attached space's accounting.
  void Book(const ServiceTime& cost);

  /// Saves the attached space's interface context when OnPageFault
  /// turns a fault into a preemption: merges TLB dirty bits (the
  /// space's translations stay installed under its ASID), releases the
  /// pinned parameter frame and writes dirty frames back, so its working
  /// set stays resident and clean. Adds the service time to `cost`. The
  /// faulting IMU stays fault-stalled; re-enter via OnPageFault after
  /// RestoreContext.
  void SaveContext(ServiceTime& cost);

  // ----- the frame path: every frame is claimed, filled and freed here -----

  /// The hard half of §3.3's fault service: loads the attached space's
  /// non-resident demand page (object, vpage) into a frame from
  /// AcquireFrame and maps it, adding the service time to `cost`. False
  /// when the run aborted.
  bool MapPage(const MappedObject& object, mem::VirtPage vpage,
               ServiceTime& cost);

  /// Takes the `span` frames PageManager::Choose picks for a `demand`
  /// fault (nullptr: the parameter page), evicting every run in use
  /// there through EvictFrame, in ascending head order. Returns the
  /// first frame, or nullopt when the run aborted.
  std::optional<mem::FrameId> AcquireFrame(u32 span,
                                           const DemandFault* demand,
                                           ServiceTime& cost);

  /// The one frame release: frees the run headed at `frame`, pinned or
  /// not, and drops any clean unit queued for it.
  void FreeFrame(mem::FrameId frame);

  /// Writes `params` into a frame from AcquireFrame and maps it as the
  /// attached space's pinned parameter page. False when the run aborted.
  bool MapParamPage(std::span<const u32> params, ServiceTime& cost);
  /// Frees the attached space's parameter frame, if it holds one.
  void ReleaseParamFrame();

  /// True when filling (object, vpage) must read user memory: always,
  /// except on the first touch of a page of an OUT object.
  bool NeedsLoad(const MappedObject& object, mem::VirtPage vpage) const;
  /// Books one `len`-byte page load (`reload`: from the bounce copy).
  void CountLoad(u32 len, bool reload);

  /// Restarts the IMU's latched translation at `when`, unless the run
  /// has ended or aborted by then.
  void ScheduleResolve(Picoseconds when);

  /// Evicts the page in `frame` (write-back iff dirty and not IN). The
  /// frame may belong to a space other than the attached one (vcopd:
  /// the running tenant evicts a switched-out tenant's page); write-back
  /// bookkeeping is charged to the owner, time to the current service.
  void EvictFrame(mem::FrameId frame, ServiceTime& cost);

  /// The one dirty-page store (§3.3: eviction, end of operation and
  /// context save all write back through it): copies `frame`'s page of
  /// `object` to user memory with bounded retries, adds the time to
  /// `cost` and books the write-back to `owner`. False when the store
  /// failed for good; the caller decides how the run ends.
  bool WriteBack(mem::FrameId frame, AddressSpace& owner,
                 const MappedObject& object, ServiceTime& cost);

  /// Owner space of `asid`: the attached space or, for foreign tags,
  /// whatever the resolver returns (nullptr when unknown).
  AddressSpace* ResolveSpace(hw::Asid asid);

  /// Installs a TLB entry for (object, vpage)->frame, recycling a TLB
  /// slot round-robin when none is free (KeepDirty on the recycled
  /// entry).
  void InstallTlbEntry(hw::ObjectId object, mem::VirtPage vpage,
                       mem::FrameId frame);

  // ----- the TLB's dirty bits and the page state -----

  /// The one fold of a TLB dirty bit into the page state: marks the
  /// frame of a valid, dirty `entry` dirty while the frame is in use.
  void KeepDirty(const hw::TlbEntry& entry);
  /// KeepDirty over every entry tagged `asid` (end of operation and
  /// context save).
  void MergeTlbDirty(hw::Asid asid);
  /// The page in `frame` was written back in place: clears the page
  /// state's and the live TLB entry's dirty bits.
  void MarkClean(mem::FrameId frame);

  /// Byte length of `vpage` within `object` (short for the last page).
  u32 PageLength(const MappedObject& object, mem::VirtPage vpage) const;
  /// User-space address backing `vpage` of `object`.
  mem::UserAddr PageUserAddr(const MappedObject& object,
                             mem::VirtPage vpage) const;

  /// Pulls the TLB accessed bits into the page state and the policy
  /// (PageManager::Touch) and refreshes hot_frames_.
  void HarvestRecency();

  // ----- fault recovery internals -----

  /// The one page-transfer retry loop (page loads and write-backs):
  /// runs `attempt` until it succeeds or kTransferRetryLimit attempts
  /// failed, adding an exponential backoff after each failure. A
  /// translation fault (iommu_fault) re-enters the loop after a
  /// fault-decode charge. On exhaustion (or a budget overrun mid-retry)
  /// the result has bus_error set and last_failure_ holds the status
  /// the caller should fail with; budget overruns have already Aborted.
  /// `op` ("load" or "store") names the direction in the failure status.
  template <typename Attempt>
  mem::TransferResult RetryTransfer(const char* op, u32 len,
                                    Attempt attempt);

  /// True when a load of the attached space's (object, vpage) is a
  /// re-load: the engine keeps bounce copies, the page was already
  /// transferred in this execution, and the object table is unchanged
  /// since it began. The kernel then still holds the page's bounce
  /// copy, and only the bounce -> DP-RAM pass runs.
  bool KernelCopyHeld(hw::ObjectId object, mem::VirtPage vpage) const;

  /// The IOMMU's page-table walker: true iff `page_base`'s user page
  /// overlaps an object mapped in `asid`'s address space (or the
  /// space's parameter backing). DMA to anything else faults.
  bool IommuWalk(mem::IommuAsid asid, mem::UserAddr page_base);

  /// Counts one recovery action against the per-request budget; on
  /// overrun aborts the run (ResourceExhausted) and returns false.
  bool ChargeFaultRecovery(const char* what);

  /// (Re)starts the interrupt watchdog — only under a non-empty plan.
  void ArmWatchdog();
  void WatchdogTick(u64 epoch);

  CostModel costs_;
  mem::PageGeometry geometry_;
  mem::DualPortRam& dp_ram_;
  mem::UserMemory& user_memory_;
  sim::Simulator& sim_;
  /// Moves and prices every page transfer, in whatever mode; in kIommu
  /// through its IOMMU, whose walker is IommuWalk.
  mem::TransferEngine transfers_;

  VimConfig config_{};

  hw::Imu* imu_ = nullptr;
  /// The space whose execution context the VIM is operating on. The
  /// per-execution state that used to live here (object table,
  /// accounting, transfer history, parameter frame) moved into it.
  AddressSpace* space_ = nullptr;
  PageManager pages_;
  u32 tlb_recycle_cursor_ = 0;

  /// Background cleaning (DESIGN.md §10): the CPU writes back units
  /// queued by fault services while the coprocessor executes, and is
  /// busy until `cpu_busy_until_`.
  Picoseconds cpu_busy_until_ = 0;
  /// Per frame: a clean unit is queued for its page and has not landed.
  std::vector<bool> clean_queued_;
  /// Invalidates stale clean units and restart events (EndBackgroundWork).
  u64 epoch_ = 0;

  /// Queues background *cleaning* of the attached space's dirty,
  /// not-recently-touched pages whose write-back is not already queued:
  /// writing them back while the coprocessor runs, so that later
  /// evictions find clean victims. `tail` is the running
  /// CPU-availability time, advanced past each new unit.
  void ScheduleBackgroundCleaning(Picoseconds& tail);

  /// The one exit for background work: it leaves the fabric with its
  /// space (end of operation, context save, abort). Bumps the epoch so
  /// no queued unit lands, then waits out the CPU's queue (adding the
  /// wait to `cost.dp`, booked as t_dp_wait).
  void EndBackgroundWork(ServiceTime& cost);

  /// Merged (page-state | live-TLB) dirty bit of `frame`.
  bool FrameDirty(mem::FrameId frame) const;

  /// Frames the coprocessor touched since the previous fault
  /// (refreshed by HarvestRecency); cleaning passes them by, and demand
  /// faults hand them to PageManager::Choose as DemandFault::referenced.
  std::vector<bool> hot_frames_;

  /// Shorthand for the attached space's accounting.
  VimAccounting& acct() { return space_->accounting; }

  // ----- fault recovery state -----
  FaultPlan* fault_plan_ = nullptr;
  /// Set when the current run failed on a device fault; read by vcopd.
  bool fault_abort_ = false;
  /// A ResolveFault event, or the end of a preempting fault's save, is
  /// scheduled but has not fired yet — a second page-fault edge in this
  /// window is a duplicate delivery.
  bool fault_service_pending_ = false;
  /// Status of the run's latest failure: a retried transfer that gave
  /// up, an exhausted budget, or whatever the run aborted with.
  Status last_failure_ = Status::Ok();
  /// Invalidates stale watchdog ticks (bumped on completion, abort,
  /// preemption, and every re-arm).
  u64 watchdog_epoch_ = 0;
  u64 wd_last_progress_ = 0;
  u32 wd_stuck_ticks_ = 0;
  std::function<u64()> progress_probe_;

  VimServiceStats service_stats_{};
  TimelineRecorder* timeline_ = nullptr;
  std::function<void(Status, bool)> on_end_;
  std::function<bool()> preempt_check_;
  std::function<AddressSpace*(hw::Asid)> space_resolver_;
};

}  // namespace vcop::os
