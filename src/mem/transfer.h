// TransferEngine: the VIM's data mover between user-space memory and
// the dual-port RAM.
//
// It both *performs* the copy (functional) and *prices* it (timing).
// Four modes, one setting (`copy_mode`). Two reproduce a detail the
// paper calls out in §4.1: their simple VIM "makes two transfers each
// time a page is loaded or unloaded from the dual-port memory" (user
// space -> kernel bounce buffer -> DP-RAM). kDoubleCopy models that;
// kSingleCopy models the fixed VIM the authors say they are working on,
// and backs the abl_transfers experiment. kDma and kIommu are the
// platform upgrades beyond it. Only this engine interprets the mode: in
// every mode the VIM sees one load, one store and one price per page.
#pragma once

#include <string_view>

#include "base/fault.h"
#include "base/units.h"
#include "mem/ahb.h"
#include "mem/dp_ram.h"
#include "mem/iommu.h"
#include "mem/user_memory.h"

namespace vcop::mem {

enum class CopyMode {
  kDoubleCopy,  // paper's implementation: two passes over the data
  kSingleCopy,  // direct user<->DP copy: one pass
  /// A platform with a DMA controller on the AHB: the CPU programs the
  /// channel (fixed cost) and the data streams SDRAM<->DP-RAM at bus
  /// speed without per-word CPU work. Not available on the paper's
  /// EPXA1 path — modelled as the obvious platform upgrade.
  kDma,
  /// Zero-copy virtual-address DMA (DESIGN.md §13): the DMA master
  /// streams straight between the tenant's user pages and the DP-RAM at
  /// the raw bus price (PriceDirect), behind the IOMMU's translation
  /// stage. No CPU pass and no bounce copy; each transfer pays its
  /// IO-TLB walks and pins its user pages while it runs.
  kIommu,
};

std::string_view ToString(CopyMode mode);

/// Outcome of one transfer: where the data went and what it cost.
struct TransferResult {
  u64 bytes = 0;
  Picoseconds time = 0;
  /// The transfer aborted with an AHB bus error: no data moved, but the
  /// wasted bus pass was still paid for in `time`. The caller (VIM)
  /// decides whether to retry.
  bool bus_error = false;
  /// Beats that were RETRYed by the slave and re-run (time only).
  u32 retried_beats = 0;
  /// The IOMMU raised a translation fault for this access (kIommu
  /// only): no data moved, the wasted walk time is in `time`. Serviced
  /// through the VIM retry path.
  bool iommu_fault = false;
};

class TransferEngine {
 public:
  /// `sdram_cycles_per_word`: CPU cost per word of the user-space side
  /// of a copy (SDRAM access + loop). Charged once per pass.
  /// `iommu_walk_cycles` (CPU clock) prices each IO-TLB miss and
  /// `iotlb_entries` sizes the IO-TLB; both matter only in kIommu.
  TransferEngine(AhbModel ahb, Frequency cpu_clock, CopyMode mode,
                 u32 sdram_cycles_per_word, u32 iommu_walk_cycles = 0,
                 u32 iotlb_entries = kIotlbEntries);

  /// Copies `len` bytes of `asid`'s user memory at `src` into the
  /// DP-RAM at `dst`, priced at PriceReload when `reload` (the kernel
  /// still holds the page's bounce copy, see KeepsBounceCopies), else at
  /// PriceTransfer. In kIommu the IOMMU first translates every user page
  /// the access touches (its walks add to the time; IO-TLB fault sites
  /// are consulted before the AHB ones) and the pages stay pinned while
  /// the bus moves them; a translation fault moves nothing.
  TransferResult LoadPage(IommuAsid asid, UserMemory& user, UserAddr src,
                          DualPortRam& dp, u32 dst, u32 len,
                          bool reload = false);

  /// Copies `len` bytes from the DP-RAM back to `asid`'s user memory,
  /// priced at PriceTransfer and translated like LoadPage.
  /// (`dp` is non-const because reads update its traffic counters.)
  TransferResult StorePage(IommuAsid asid, DualPortRam& dp, u32 src,
                           UserMemory& user, UserAddr dst, u32 len);

  /// Time that moving `len` bytes would take in the current mode,
  /// without performing it (the VIM prices its clean units with it). In
  /// kIommu it is PriceDirect; the IO-TLB walks are priced per transfer.
  Picoseconds PriceTransfer(u32 len) const;

  /// Time of a re-load (LoadPage with `reload`). In kDoubleCopy only the
  /// bounce -> DP-RAM pass runs, which costs what one single-copy
  /// transfer does; the other modes keep no bounce copy, so it equals
  /// PriceTransfer.
  Picoseconds PriceReload(u32 len) const;

  /// Time of writing `len` bytes of FPGA_EXECUTE parameters into the
  /// parameter page. The words come from the system call, not from a
  /// user page the IOMMU could map, so in kIommu the CPU copies them
  /// through the kernel at the double-copy price; every other mode
  /// prices them as one page transfer.
  Picoseconds PriceParams(u32 len) const;

  /// Raw AHB/DMA streaming bound for `len` bytes: burst setup plus
  /// beat+SDRAM cycles per word on the bus clock — no per-word CPU work,
  /// no bounce passes, no channel-programming cost (under the IOMMU the
  /// scatter-gather list is the channel program, built once per fault
  /// service and priced as the IO-TLB walk). This is the analytic bound
  /// bench_iommu gates against.
  Picoseconds PriceDirect(u32 len) const;

  /// True when every page the engine moves leaves a copy in the
  /// kernel's bounce buffer (kDoubleCopy), which a later re-load of the
  /// same page reads instead of user memory.
  bool KeepsBounceCopies() const { return mode_ == CopyMode::kDoubleCopy; }

  /// Shoots down `asid`'s IO-TLB translations (its DMA window closed or
  /// its virtual ranges moved). Nothing to do outside kIommu.
  void Invalidate(IommuAsid asid);

  void set_mode(CopyMode mode) { mode_ = mode; }

  /// The translation stage kIommu transfers go through.
  Iommu& iommu() { return iommu_; }
  const Iommu& iommu() const { return iommu_; }

  /// Installs (or clears, with nullptr) the fault plan consulted on
  /// every transfer, by the IOMMU as well. Not owned.
  void set_fault_plan(FaultPlan* plan) {
    fault_plan_ = plan;
    iommu_.set_fault_plan(plan);
  }

  /// Cumulative counters.
  u64 total_bytes_loaded() const { return bytes_loaded_; }
  u64 total_bytes_stored() const { return bytes_stored_; }
  Picoseconds total_time() const { return total_time_; }
  /// Passes through the kernel bounce buffer (kDoubleCopy transfers
  /// only). The bench_iommu gate: stays zero when every page transfer
  /// takes the direct path.
  u64 bounce_copies() const { return bounce_copies_; }
  /// Bytes moved by kIommu transfers that completed.
  u64 zero_copy_bytes() const { return zero_copy_bytes_; }

 private:
  /// One CPU copy loop touching user SDRAM on one end and the DP-RAM on
  /// the other: the whole of a single-copy transfer.
  Picoseconds PriceOnePass(u32 len) const;
  /// Page price of `mode`, whatever the engine's own mode.
  Picoseconds PriceIn(CopyMode mode, u32 len) const;
  /// Runs `copy` for a transfer of [addr, addr+len) of `asid`'s memory:
  /// directly outside kIommu, else behind the IOMMU's translation and
  /// pins.
  template <typename Copy>
  TransferResult Translated(IommuAsid asid, UserMemory& user, UserAddr addr,
                            u32 len, Copy copy);
  /// The one copy routine per direction, charged `price`: every load
  /// and store, bounced or direct, runs through these.
  TransferResult CopyIn(const UserMemory& user, UserAddr src,
                        DualPortRam& dp, u32 dst, u32 len,
                        Picoseconds price);
  TransferResult CopyOut(DualPortRam& dp, u32 src, UserMemory& user,
                         UserAddr dst, u32 len, Picoseconds price);

  AhbModel ahb_;
  Frequency cpu_clock_;
  CopyMode mode_;
  u32 sdram_cycles_per_word_;
  Iommu iommu_;
  u64 bytes_loaded_ = 0;
  u64 bytes_stored_ = 0;
  u64 bounce_copies_ = 0;
  u64 zero_copy_bytes_ = 0;
  Picoseconds total_time_ = 0;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace vcop::mem
