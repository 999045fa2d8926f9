// Calibration constants for the modelled OS and platform costs.
//
// The paper measured a physical EPXA1 board; we do not have one, so the
// *unit costs* of OS work are set here, each with a derivation from a
// number the paper reports (or from well-known ARM9/Linux magnitudes
// where the paper is silent). Everything else — fault counts, transfer
// volumes, stall times, speedups, crossovers — is emergent from the
// simulation. Change these constants and the shapes must (and do)
// persist; see bench/abl_platforms and EXPERIMENTS.md.
#pragma once

#include "base/types.h"
#include "base/units.h"
#include "mem/ahb.h"

namespace vcop::os {

struct CostModel {
  /// The ARM-stripe clock: "an ARM processor running at 133 MHz" (§4).
  Frequency cpu_clock = Frequency::MHz(133);

  /// Syscall entry/exit (trap, register save, dispatch, return):
  /// ~4.5 us on ARM-Linux 2.4-era kernels.
  u32 syscall_cycles = 600;

  /// Interrupt entry + handler prologue + exit: ~3.2 us.
  u32 interrupt_entry_cycles = 420;

  /// Fault decode: read SR/AR, identify (object, index), walk the
  /// object/page tables: ~4.2 us. Together with interrupt entry and the
  /// table updates below this puts one fault's "IMU management" at
  /// ~9 us; across the experiments that keeps the total IMU-management
  /// share at or below the paper's "up to 2.5% of the total execution
  /// time" (§4.1) — the binding case is IDEA at 4 KB, where five faults
  /// and the end-of-operation sweep meet the shortest total runtime.
  u32 fault_decode_cycles = 560;

  /// Installing/replacing one TLB entry over the bus: ~1 us.
  u32 tlb_update_cycles = 130;

  /// Per-page bookkeeping during eviction decisions (policy update,
  /// page-table edit): ~0.8 us.
  u32 page_table_cycles = 110;

  /// FPGA_EXECUTE setup per mapped object (descriptor programming,
  /// validation): ~8 us per object.
  u32 execute_setup_cycles_per_object = 1100;

  /// Waking the sleeping caller at end of operation: ~6 us.
  u32 wakeup_cycles = 800;

  /// vcopd preemption: saving a job's interface context at a fault
  /// boundary (snapshotting translations, page bookkeeping): ~3 us.
  /// Dirty-page write-back is priced separately by the TransferEngine.
  u32 context_save_cycles = 400;

  /// vcopd preemption: re-installing a saved context at resume
  /// (validating and re-loading surviving translations): ~2.4 us.
  u32 context_restore_cycles = 320;

  /// IOMMU IO-TLB miss: the hardware walker resolves one 4 KB user page
  /// against the owning address space's tables (~two dependent SDRAM
  /// reads plus the IO-TLB refill write, ~0.9 us). Paid per compulsory
  /// miss on the zero-copy path; IO-TLB hits are free.
  u32 iommu_walk_cycles = 120;

  /// Base backoff after a failed (bus-errored) page transfer before the
  /// VIM re-runs it; doubles per attempt (~2 us, 4 us, 8 us). Only paid
  /// under fault injection — fault-free transfers never back off.
  u32 transfer_retry_backoff_cycles = 260;

  /// SDRAM-side cost of one 32-bit word within an OS copy loop
  /// (uncached user-page access on ARM9): feeds the TransferEngine.
  /// With the AHB timing below this yields an effective page-move rate
  /// of ~11.8 MB/s double-copy (173.71 us per 2 KB page), which matches
  /// the overhead decomposition of Figures 8/9 (see EXPERIMENTS.md). A
  /// re-load from the kernel's bounce copy runs only the bounce -> DP-RAM
  /// pass: 81.32 us per 2 KB page, the single-copy price.
  u32 sdram_cycles_per_word = 12;

  /// AHB timing of the dual-port-RAM slave (single-cycle data phase,
  /// INCR16 bursts, ARM as the copying master — the EPXA1 VIM path has
  /// no DMA engine).
  mem::AhbTiming ahb{};

  Picoseconds Cycles(u64 n) const { return cpu_clock.Duration(n); }
};

}  // namespace vcop::os
