// The Interface Management Unit — the paper's central hardware piece.
//
// The IMU sits between a *portable* coprocessor (which addresses data as
// (object id, element index) pairs) and the *platform-specific* dual-port
// RAM. Per access it:
//   1. registers the request launched on the CP_* lines,
//   2. translates (object, index) through its CAM TLB over several
//      cycles — "four cycles are needed from the moment when the
//      coprocessor generates an access to the moment when the data is
//      read or written" (§4, Figure 7),
//   3. on a hit: performs the dual-port RAM access and asserts CP_TLBHIT,
//   4. on a miss: latches the access into AR, sets SR.fault, stalls the
//      coprocessor and raises an interrupt for the OS (§3.2/§3.3).
//
// A pipelined translation mode models the paper's announced follow-up
// ("a pipelined implementation of the IMU which is expected to mask
// almost completely the translation overhead", §4.1).
#pragma once

#include <array>
#include <functional>
#include <optional>

#include "base/fault.h"
#include "base/status.h"
#include "base/types.h"
#include "hw/cp_port.h"
#include "hw/imu_regs.h"
#include "hw/interrupt.h"
#include "hw/tlb.h"
#include "mem/dp_ram.h"
#include "mem/page.h"
#include "sim/clock.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace vcop::hw {

struct ImuConfig {
  /// Data is valid on this rising edge, counting the issue edge as the
  /// first (Figure 7: 4). Must be >= 2.
  u32 access_latency_cycles = 4;
  /// Pipelined translation: lookup completes combinationally and a new
  /// access can be accepted every cycle.
  bool pipelined = false;
  /// Extension: a single-entry posted-write buffer. Writes are
  /// acknowledged to the coprocessor on its next edge while the
  /// translation retires in the background; the core only stalls if it
  /// issues another access before the buffer drains. Cuts the write
  /// cost from access_latency_cycles to 2 core cycles when the IMU
  /// shares the core clock.
  bool posted_writes = false;
};

struct ImuStats {
  u64 accesses = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 faults = 0;
  /// Simulated time the coprocessor spent stalled on faults, i.e. from
  /// interrupt raise to OS resolution. This is OS service time as seen
  /// from the hardware side.
  Picoseconds fault_stall_time = 0;
  /// Sum over completed accesses of (data-valid time − issue time):
  /// raw interface latency including translation.
  Picoseconds access_latency_time = 0;
};

class Imu final : public sim::ClockedModule, public CoprocessorPort {
 public:
  /// The IMU is wired to its platform at construction: page geometry of
  /// the interface memory, the dual-port RAM itself, the interrupt line
  /// to the processor, and the platform's TLB CAM. Every design
  /// instantiated on a platform fronts the same CAM, so ASID-tagged
  /// entries survive tenant switches. The TLB must outlive the IMU.
  Imu(const ImuConfig& config, mem::PageGeometry geometry,
      mem::DualPortRam& dp_ram, InterruptLine& irq, sim::Simulator& sim,
      Tlb& tlb);

  /// Clock wiring: `own` is the IMU/memory-subsystem clock; `cp` is the
  /// coprocessor's clock domain (kicked when a response becomes ready).
  /// Must be called before the coprocessor starts.
  void BindClocks(sim::ClockDomain& own, sim::ClockDomain& cp);

  // ----- OS-side interface (used by the VIM through the kernel) -----

  /// Clears the whole object descriptor table (widths, limits and page
  /// sizes): an object not programmed again faults as never described.
  void ClearObjects();

  /// Programs the object descriptor table: elements of `object` are
  /// `width` bytes (1, 2 or 4). Virtual byte offset = index * width.
  void SetObjectWidth(ObjectId object, u32 width);

  /// Programs the object's limit register (element count; 0 = no
  /// limit). Extension beyond the paper's IMU (segment-style bounds): an
  /// access at or beyond the limit faults with SR.limit set even when it
  /// would land inside a mapped page — which the paper's design (and a
  /// plain MMU) cannot catch. Costs one comparator per access in
  /// hardware.
  void SetObjectLimit(ObjectId object, u32 elem_count);

  /// True when the pending fault is a limit violation (extension).
  bool limit_fault() const { return (sr_ & kSrLimitFault) != 0; }

  /// Direct access to the TLB (the OS installs/invalidates entries
  /// during fault handling, like an MMU with a software-managed TLB).
  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  /// Programs object `object`'s page size in bytes (a power of two, at
  /// least the platform frame granule; superpages span several
  /// contiguous frames). 0 restores the platform default. Affects how
  /// the IMU splits a byte offset into (vpage, page offset).
  void SetObjectPageBytes(ObjectId object, u32 bytes);

  /// Programs the address-space tag this IMU presents on every TLB
  /// access. Clears the host-side translation cache (cached indices
  /// were found under the old tag). Default 0 = kernel space.
  void SetAsid(Asid asid) {
    asid_ = asid;
    for (TcEntry& tc : tc_) tc.valid = false;
  }
  Asid asid() const { return asid_; }

  u32 ReadRegister(ImuRegister reg) const;

  /// CP_START: begins a coprocessor run. Resets per-run state, the
  /// statistics included.
  void AssertStart();

  /// Acknowledges the end-of-operation interrupt (clears SR.end).
  void AckEnd();

  /// Emergency stop used by the OS when a run must be aborted (e.g. the
  /// coprocessor faulted on an object the application never mapped):
  /// drops any in-flight access and returns the IMU to idle.
  void HardStop();

  /// Resolves a pending fault after the OS has (re)mapped the page:
  /// clears SR.fault and lets the translation restart (§3.3 "the OS
  /// allows the IMU to restart the translation and lets the coprocessor
  /// exit from the stalled state").
  void ResolveFault();

  /// Callback invoked (zero simulated cost) when the coprocessor
  /// releases the parameter page, so the OS page manager can reuse the
  /// frame. Installed by the VIM.
  void set_param_release_hook(std::function<void()> hook) {
    param_release_hook_ = std::move(hook);
  }

  /// Observation probe fired once per accepted access with the page it
  /// touches — the page reference string. The stream depends only on
  /// the coprocessor program, never on paging decisions, which is what
  /// makes the two-pass Belady oracle (os/oracle.h) sound. No simulated
  /// cost; nullptr disables.
  void set_page_ref_probe(
      std::function<void(ObjectId, mem::VirtPage)> probe) {
    page_ref_probe_ = std::move(probe);
  }

  /// Optional waveform tracing of the CP_* signals (Figure 7).
  /// Pass nullptr to disable.
  void AttachTracer(sim::Tracer* tracer);

  /// Counters of the current (or last) run since CP_START.
  const ImuStats& stats() const { return stats_; }
  const mem::PageGeometry& geometry() const { return geometry_; }
  bool fault_pending() const { return (sr_ & kSrFaultPending) != 0; }
  bool busy() const { return (sr_ & kSrBusy) != 0; }
  /// True when a kCpHang fault wedged the datapath: no response will
  /// ever arrive and only HardStop (the VIM's watchdog abort) recovers.
  bool hung() const { return state_ == State::kHung; }

  /// Installs (or clears) the fault plan consulted at the coprocessor
  /// port (kCpStall, kCpHang, kSpuriousFault). Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// OS-side veto over the fast-forward tier: when installed, an access
  /// is only resolved analytically while the gate returns true. The VIM
  /// uses it to decline fast-forwarding while a fault service of its
  /// own is being costed. nullptr = no veto.
  void set_fastforward_gate(std::function<bool()> gate) {
    ff_gate_ = std::move(gate);
  }

  // ----- CoprocessorPort (coprocessor-side interface) -----
  bool CanIssue() const override;
  void Issue(const CpAccess& access) override;
  bool ResponseReady() const override;
  u32 ConsumeResponse() override;
  bool BackToBack() const override { return config_.pipelined; }
  void ReleaseParamPage() override;
  void SignalFinish() override;

  // ----- sim::ClockedModule -----
  void OnRisingEdge() override;
  bool active() const override;
  /// While translating, the IMU only needs the edge on which the
  /// translation completes; the observation-counting edges in between
  /// are batched and credited through OnEdgesSkipped.
  u64 NextInterestingEdge(Picoseconds next_edge_time) const override;
  void OnEdgesSkipped(u64 count, Picoseconds first_edge_time) override;

 private:
  enum class State {
    kIdle,          // no outstanding access
    kTranslating,   // counting translation cycles
    kFaultStalled,  // TLB missed; waiting for the OS
    kResponding,    // translated; data valid at ready_at_
    kHung,          // fault injection wedged the datapath for good
  };

  /// Performs the TLB lookup and, on a hit, the DP-RAM access;
  /// otherwise raises the fault. Runs "at the end of" translation —
  /// `when` is the translation-complete timestamp, which is the current
  /// simulation time on the cycle-stepped path and a future edge
  /// computed from the clock grid on the fast-forward path.
  void TranslateAt(Picoseconds when);
  void Translate() { TranslateAt(sim_.now()); }

  /// Fast-forward tier: when this access is provably a fault-free TLB
  /// hit and nothing can interleave before it completes, run the
  /// translation analytically at issue time (with the timestamps the
  /// cycle-stepped engine would produce) and never wake the IMU clock.
  /// Returns false — leaving all state untouched — at any uncertain
  /// edge: TLB miss, armed CP-port fault site, posted write, attached
  /// tracer, OS veto, or a pending event before the completion time.
  bool TryFastForward();

  /// First IMU-grid edge strictly after the current simulation time.
  Picoseconds NextOwnEdgeTime() const;

  /// First IMU-grid edge strictly after `t` (grid math only; no domain
  /// state consulted — usable for future timestamps).
  Picoseconds OwnEdgeStrictlyAfter(Picoseconds t) const;

  u32 ObservationsNeeded() const {
    return config_.pipelined ? 0 : config_.access_latency_cycles - 2;
  }

  ImuConfig config_;
  mem::PageGeometry geometry_;
  mem::DualPortRam& dp_ram_;
  InterruptLine& irq_;
  sim::Simulator& sim_;
  sim::ClockDomain* own_domain_ = nullptr;
  sim::ClockDomain* cp_domain_ = nullptr;
  // Memo for NextOwnEdgeTime, keyed on the query time (the IMU grid is
  // immutable). Repeated calls within one timestamp — issue, trace,
  // response — then share one cycle conversion.
  mutable Picoseconds next_edge_memo_for_ = 0;
  mutable Picoseconds next_edge_memo_ = 0;
  mutable bool next_edge_memo_valid_ = false;

  Tlb& tlb_;
  Asid asid_ = 0;
  std::array<u32, kMaxObjects> elem_width_{};  // bytes; 0 = unprogrammed
  std::array<u32, kMaxObjects> elem_limit_{};  // elements; 0 = unlimited
  // Per-object page shift; 0 = the platform geometry's shift.
  std::array<u32, kMaxObjects> page_shift_{};

  u32 ObjectPageShift(ObjectId object) const {
    const u32 s = page_shift_[object];
    return s != 0 ? s : geometry_.page_shift();
  }

  State state_ = State::kIdle;
  bool started_ = false;
  // Posted-write lifecycle: the CP-side acknowledgement and the
  // IMU-side retirement proceed independently.
  bool posted_ = false;        // current access is a posted write
  bool cp_consumed_ = false;   // core took the early acknowledgement
  Picoseconds ack_at_ = 0;     // when the acknowledgement is visible
  bool finish_pending_ = false;  // CP_FIN deferred until buffer drains
  CpAccess current_{};
  Picoseconds issue_time_ = 0;
  Picoseconds observe_floor_ = 0;  // observe only edges strictly after
  u32 observations_ = 0;
  Picoseconds ready_at_ = 0;  // valid in State::kResponding
  u32 rdata_ = 0;
  Picoseconds fault_raised_at_ = 0;

  u32 sr_ = 0;
  u32 cr_ = kCrEnable;
  u32 ar_ = 0;

  // Last-translation cache, used under sim::Engine::kFast only: a
  // host-side optimisation with no simulated-hardware meaning that skips
  // the CAM scan while the TLB generation, object and page all still
  // match. Statistics and timing are bit-identical either way. One
  // entry per object, valid while the TLB generation matches, i.e. no
  // entry was installed or invalidated since the hit was recorded. Per
  // object because coprocessor FSMs interleave streams (IDEA alternates
  // input reads and output writes every block) — a shared entry would
  // thrash on exactly the streaming pattern the cache exists for.
  struct TcEntry {
    bool valid = false;
    u64 generation = 0;
    mem::VirtPage vpage = 0;
    u32 index = 0;
  };
  std::array<TcEntry, kMaxObjects> tc_{};

  std::function<void()> param_release_hook_;
  std::function<bool()> ff_gate_;
  std::function<void(ObjectId, mem::VirtPage)> page_ref_probe_;
  ImuStats stats_;
  FaultPlan* fault_plan_ = nullptr;

  // Tracing. CP_ACCESS/CP_TLBHIT stay asserted through the edge that
  // samples them; their deassertion is held pending until the next
  // issue (or CP_FIN) so back-to-back accesses render as in hardware.
  sim::Tracer* tracer_ = nullptr;
  sim::SignalId sig_access_ = 0, sig_wr_ = 0, sig_obj_ = 0, sig_addr_ = 0,
                sig_tlbhit_ = 0, sig_din_ = 0, sig_fault_ = 0;
  std::optional<Picoseconds> trace_deassert_at_;
};

}  // namespace vcop::hw
