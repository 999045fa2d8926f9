// TransferEngine: the VIM's data mover between user-space memory and
// the dual-port RAM.
//
// It both *performs* the copy (functional) and *prices* it (timing).
// Two modes reproduce a detail the paper calls out in §4.1: their simple
// VIM "makes two transfers each time a page is loaded or unloaded from
// the dual-port memory" (user space -> kernel bounce buffer -> DP-RAM).
// kDoubleCopy models that; kSingleCopy models the fixed VIM the authors
// say they are working on, and backs the abl_transfers experiment.
#pragma once

#include <string_view>

#include "base/fault.h"
#include "base/units.h"
#include "mem/ahb.h"
#include "mem/dp_ram.h"
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
  /// The IOMMU raised a translation fault for this access (set by
  /// mem::Iommu, never by the engine itself): no data moved, the wasted
  /// bus/walk time is in `time`. Serviced through the VIM retry path.
  bool iommu_fault = false;
};

class TransferEngine {
 public:
  /// `sdram_cycles_per_word`: CPU cost per word of the user-space side
  /// of a copy (SDRAM access + loop). Charged once per pass.
  TransferEngine(AhbModel ahb, Frequency cpu_clock, CopyMode mode,
                 u32 sdram_cycles_per_word);

  /// Copies `len` bytes from user memory into the DP-RAM.
  TransferResult LoadPage(const UserMemory& user, UserAddr src,
                          DualPortRam& dp, u32 dst, u32 len);

  /// LoadPage for a page whose kernel bounce copy is still held from an
  /// earlier transfer: the same copy and fault-injection opportunities,
  /// priced at PriceReload. Counts as a bounce pass in kDoubleCopy.
  TransferResult ReloadPage(const UserMemory& user, UserAddr src,
                            DualPortRam& dp, u32 dst, u32 len);

  /// Copies `len` bytes from the DP-RAM back to user memory.
  /// (`dp` is non-const because reads update its traffic counters.)
  TransferResult StorePage(DualPortRam& dp, u32 src, UserMemory& user,
                           UserAddr dst, u32 len);

  /// Zero-copy paths used by the IOMMU (mem/iommu.h): the DMA master
  /// scatter-gathers straight between user pages and the DP-RAM, so the
  /// data crosses the bus exactly once and the CPU never touches it.
  /// Functionally identical to LoadPage/StorePage (same fault-injection
  /// opportunities) but priced at PriceDirect — the raw AHB streaming
  /// bound with no CPU-copy passes.
  TransferResult LoadDirect(const UserMemory& user, UserAddr src,
                            DualPortRam& dp, u32 dst, u32 len);
  TransferResult StoreDirect(DualPortRam& dp, u32 src, UserMemory& user,
                             UserAddr dst, u32 len);

  /// Time that moving `len` bytes would take in the current mode,
  /// without performing it (used by planners/prefetchers).
  Picoseconds PriceTransfer(u32 len) const;

  /// Time of a re-load (ReloadPage). In kDoubleCopy only the bounce ->
  /// DP-RAM pass runs, which costs what one single-copy transfer does;
  /// the other modes keep no bounce copy, so it equals PriceTransfer.
  Picoseconds PriceReload(u32 len) const;

  /// Raw AHB/DMA streaming bound for `len` bytes: burst setup plus
  /// beat+SDRAM cycles per word on the bus clock — no per-word CPU work,
  /// no bounce passes, no channel-programming cost (under the IOMMU the
  /// scatter-gather list is the channel program, built once per fault
  /// service and priced as the IO-TLB walk). This is the analytic bound
  /// bench_iommu gates against.
  Picoseconds PriceDirect(u32 len) const;

  CopyMode mode() const { return mode_; }
  void set_mode(CopyMode mode) { mode_ = mode; }

  /// Installs (or clears, with nullptr) the fault plan consulted on
  /// every transfer. Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Cumulative counters.
  u64 total_bytes_loaded() const { return bytes_loaded_; }
  u64 total_bytes_stored() const { return bytes_stored_; }
  Picoseconds total_time() const { return total_time_; }
  /// Passes through the kernel bounce buffer (kDoubleCopy transfers
  /// only). The bench_iommu gate: stays zero when every page transfer
  /// takes the direct path.
  u64 bounce_copies() const { return bounce_copies_; }

 private:
  /// One CPU copy loop touching user SDRAM on one end and the DP-RAM on
  /// the other: the whole of a single-copy transfer.
  Picoseconds PriceOnePass(u32 len) const;
  /// The one copy routine per direction, charged `price`: every load
  /// and store, bounced or direct, runs through these.
  TransferResult Load(const UserMemory& user, UserAddr src, DualPortRam& dp,
                      u32 dst, u32 len, Picoseconds price);
  TransferResult Store(DualPortRam& dp, u32 src, UserMemory& user,
                       UserAddr dst, u32 len, Picoseconds price);

  AhbModel ahb_;
  Frequency cpu_clock_;
  CopyMode mode_;
  u32 sdram_cycles_per_word_;
  u64 bytes_loaded_ = 0;
  u64 bytes_stored_ = 0;
  u64 bounce_copies_ = 0;
  Picoseconds total_time_ = 0;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace vcop::mem
