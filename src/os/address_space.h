// Per-tenant address spaces for the vcopd service layer.
//
// The paper models one process owning the coprocessor for the duration
// of a blocking FPGA_EXECUTE. To serve many concurrent clients (§5's
// "managing the reconfigurable fabric across tasks"), each tenant gets
// an AddressSpace: its own Process, its own object table, and — the
// part that makes preemption possible — the VIM execution context that
// used to live inside the Vim itself (accounting, write-back history,
// parameter-page state). The Vim
// operates on exactly one attached AddressSpace at a time; Kernel::Bind
// attaches one for every FPGA_EXECUTE and every vcopd slice.
//
// Spaces are identified by an ASID, the tag the shared interface TLB
// keys entries on (hw/tlb.h): a tenant's translations survive other
// tenants' slices until capacity evicts them. ASID 0 is reserved for
// the kernel's default space, the one the blocking system calls use.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/tlb.h"
#include "mem/page.h"
#include "os/object_table.h"
#include "os/process.h"
#include "sim/stats.h"

namespace vcop::os {

/// Per-execution accounting, matching the decomposition of Figures 8/9.
/// Lives with the address space so a preempted tenant's partial charges
/// survive the slices of other tenants.
struct VimAccounting {
  /// "software execution time for the dual-port RAM management (time
  /// spent in the OS transferring data from/to user-space memory)"
  Picoseconds t_dp = 0;
  /// "software execution time for the IMU management (time spent in the
  /// OS checking which address has generated the fault and updating the
  /// translation table)"
  Picoseconds t_imu = 0;
  /// Waking the sleeping caller at end of operation — invocation
  /// machinery, reported with the invocation overhead, not as IMU
  /// management.
  Picoseconds t_wakeup = 0;

  u64 faults = 0;           // hard faults: page not resident
  u64 tlb_refills = 0;      // soft faults: resident, TLB entry missing
  u64 evictions = 0;
  u64 writebacks = 0;
  u64 loads = 0;
  /// Loads served from the kernel's bounce copy of a page transferred
  /// earlier in this execution: only the bounce -> DP-RAM pass ran
  /// (double copy only; included in `loads`).
  u64 kernel_copy_loads = 0;
  /// Pages written back in place by background cleaning (prefetch =
  /// clean).
  u64 cleaned_pages = 0;
  u64 bytes_loaded = 0;
  u64 bytes_written_back = 0;
  /// CPU time spent on clean units that ran concurrently with
  /// coprocessor execution. NOT part of the serial t_dp sum — it does
  /// not extend the wall time unless a service has to wait.
  Picoseconds t_dp_overlapped = 0;
  /// Portion of service time spent waiting for the CPU to finish queued
  /// clean units. Included in t_dp.
  Picoseconds t_dp_wait = 0;
  /// Writes observed to pages of objects mapped IN (coprocessor bug
  /// indicator: those dirty pages are dropped, honouring the hint).
  u64 dirty_in_pages_dropped = 0;
  /// Times this execution was preempted at a fault boundary (vcopd).
  u64 preemptions = 0;
  /// Recovery actions (transfer retries, watchdog re-polls) consumed
  /// against this execution's fault budget (kFaultBudget).
  u64 fault_recoveries = 0;
  /// Zero-copy DMA accesses the IOMMU refused to translate (walk
  /// failed or an injected translation fault); each is serviced
  /// through the same bounded retry path as a bus error.
  u64 iommu_faults = 0;
  /// Always 0: the VIM loads no page speculatively (DESIGN.md §10).
  /// Kept because perfbench reports them.
  u64 prefetched_pages = 0;
  u64 prefetch_useful = 0;
  /// Distribution of individual fault-service times in microseconds
  /// (interrupt entry to coprocessor restart).
  sim::Summary fault_service_us;
};

class AddressSpace {
 public:
  AddressSpace(u32 pid, hw::Asid asid, std::string name = "")
      : asid_(asid), name_(std::move(name)), process_(pid) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  u32 pid() const { return process_.pid(); }
  hw::Asid asid() const { return asid_; }
  const std::string& name() const { return name_; }
  Process& process() { return process_; }
  const Process& process() const { return process_; }
  ObjectTable& objects() { return objects_; }
  const ObjectTable& objects() const { return objects_; }

  // ----- VIM execution context (driven by the Vim while attached) -----

  VimAccounting accounting{};
  /// Pages transferred in this execution: loaded by a demand fault's
  /// service or written back. In double-copy mode the kernel keeps each
  /// one's bounce copy, so a later load runs only the bounce -> DP-RAM
  /// pass. An OUT page is never loaded
  /// before its first write-back, so for OUT objects this is also the
  /// set of pages whose next fault must reload them (see
  /// Vim::NeedsLoad).
  std::set<std::pair<hw::ObjectId, mem::VirtPage>> transferred;
  /// objects().version() when this execution began: once the table
  /// moves, the bounce copies no longer name the pages they mirrored.
  u64 transferred_objects_version = 0;
  /// Pages this space evicted after the coprocessor had referenced them,
  /// since the space last came onto the fabric (PrepareExecution or
  /// RestoreContext after a SaveContext). A demand fault on one is a
  /// re-fault (DemandFault::refault).
  std::set<std::pair<hw::ObjectId, mem::VirtPage>> evicted_after_use;
  /// Frame pinned under the parameter page, while established.
  std::optional<mem::FrameId> param_frame;
  /// The scalar parameters of the current execution, kept so a
  /// preempted run can re-materialise its parameter page at resume.
  std::vector<u32> saved_params;
  /// True from PrepareExecution until the coprocessor releases the
  /// parameter page (or the run ends): the page must exist — or be
  /// restored — whenever the job is on the fabric.
  bool params_live = false;
  /// The run was aborted; late interrupts are ignored.
  bool aborted = false;
  /// Page of each object's latest demand fault in this execution: the
  /// sequential-run state a replacement policy may weigh (DemandFault).
  std::array<std::optional<mem::VirtPage>, hw::kMaxObjects> last_fault_page{};

  /// Records a demand fault on (object, vpage) and returns the page of
  /// the object's previous one in this execution, if any.
  std::optional<mem::VirtPage> NoteDemandFault(hw::ObjectId object,
                                               mem::VirtPage vpage) {
    VCOP_CHECK_MSG(object < hw::kMaxObjects, "object id out of range");
    return std::exchange(last_fault_page[object], vpage);
  }

 private:
  hw::Asid asid_;
  std::string name_;
  Process process_;
  ObjectTable objects_;
};

/// Allocates ASIDs from the finite tag space of the shared TLB's CAM.
/// ASID 0 is permanently reserved for the kernel's default space. The
/// cursor keeps advancing across Release, so freed tags are reused in
/// wrap-around order — the classic generation problem: after 2^N
/// allocations a tag can be handed out again while TLB entries created
/// under its previous owner are still live, aliasing the new tenant
/// onto stale translations. UnregisterTenant flushes a dying ASID's
/// residue, but nothing forces that invariant on other users of the
/// allocator, so the allocator itself tracks generations: every
/// wrap-around of the cursor past the top of the tag space bumps the
/// generation and fires the rollover hook, which the owner (vcopd)
/// wires to a full TLB invalidation.
class AsidAllocator {
 public:
  /// `capacity` = total tags including the reserved 0; must be >= 2.
  explicit AsidAllocator(u32 capacity);

  Result<hw::Asid> Allocate();
  void Release(hw::Asid asid);
  bool InUse(hw::Asid asid) const;

  u32 capacity() const { return static_cast<u32>(used_.size()); }
  u32 in_use() const { return in_use_; }

  /// Completed passes through the tag space (i.e. times the cursor
  /// wrapped past the top while scanning or advancing).
  u64 generation() const { return generation_; }

  /// Invoked once per generation rollover, before the recycled tag is
  /// returned: the hook must make sure no stale entries tagged with a
  /// previous generation's ASIDs survive (vcopd installs a full flush
  /// of the shared TLB).
  void set_rollover_hook(std::function<void()> hook) {
    rollover_hook_ = std::move(hook);
  }

 private:
  std::vector<bool> used_;
  u32 in_use_ = 0;
  u32 cursor_ = 1;
  u64 generation_ = 0;
  std::function<void()> rollover_hook_;
};

}  // namespace vcop::os
