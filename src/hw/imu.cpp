#include "hw/imu.h"

#include "base/log.h"
#include "base/table.h"

namespace vcop::hw {

Imu::Imu(const ImuConfig& config, mem::PageGeometry geometry,
         mem::DualPortRam& dp_ram, InterruptLine& irq, sim::Simulator& sim,
         Tlb& tlb)
    : config_(config),
      geometry_(geometry),
      dp_ram_(dp_ram),
      irq_(irq),
      sim_(sim),
      tlb_(tlb) {
  VCOP_CHECK_MSG(config.access_latency_cycles >= 2,
                 "IMU access latency must be at least 2 cycles");
  VCOP_CHECK_MSG(geometry.total_bytes() <= dp_ram.size(),
                 "page geometry exceeds the dual-port RAM");
  if (config.pipelined) cr_ |= kCrPipelined;
}

void Imu::BindClocks(sim::ClockDomain& own, sim::ClockDomain& cp) {
  own_domain_ = &own;
  cp_domain_ = &cp;
}

void Imu::ClearObjects() {
  elem_width_.fill(0);
  elem_limit_.fill(0);
  page_shift_.fill(0);
}

void Imu::SetObjectWidth(ObjectId object, u32 width) {
  VCOP_CHECK_MSG(object < kMaxObjects, "object id out of range");
  VCOP_CHECK_MSG(width == 1 || width == 2 || width == 4,
                 "element width must be 1, 2 or 4 bytes");
  elem_width_[object] = width;
}

void Imu::SetObjectLimit(ObjectId object, u32 elem_count) {
  VCOP_CHECK_MSG(object < kMaxObjects, "object id out of range");
  elem_limit_[object] = elem_count;
}

void Imu::SetObjectPageBytes(ObjectId object, u32 bytes) {
  VCOP_CHECK_MSG(object < kMaxObjects, "object id out of range");
  if (bytes == 0) {
    page_shift_[object] = 0;
    return;
  }
  VCOP_CHECK_MSG(IsPowerOfTwo(bytes), "object page size must be 2^k");
  VCOP_CHECK_MSG(bytes >= geometry_.page_bytes(),
                 "object page size below the frame granule");
  page_shift_[object] = Log2(bytes);
}

u32 Imu::ReadRegister(ImuRegister reg) const {
  switch (reg) {
    case ImuRegister::kAR: return ar_;
    case ImuRegister::kSR: return sr_;
    case ImuRegister::kCR: return cr_;
  }
  VCOP_CHECK(false);
  return 0;
}

void Imu::AssertStart() {
  VCOP_CHECK_MSG(!started_, "coprocessor already started");
  VCOP_CHECK_MSG(state_ == State::kIdle, "IMU busy at start");
  started_ = true;
  posted_ = false;
  cp_consumed_ = false;
  finish_pending_ = false;
  sr_ = kSrBusy;
  stats_ = ImuStats{};
  // Object widths and TLB content are (re)programmed by the OS around
  // each run.
}

void Imu::AckEnd() { sr_ &= ~kSrEndPending; }

void Imu::HardStop() {
  started_ = false;
  state_ = State::kIdle;
  posted_ = false;
  cp_consumed_ = false;
  finish_pending_ = false;
  sr_ = 0;
}

void Imu::ResolveFault() {
  VCOP_CHECK_MSG(state_ == State::kFaultStalled,
                 "ResolveFault without a pending fault");
  sr_ &= ~kSrFaultPending;
  stats_.fault_stall_time += sim_.now() - fault_raised_at_;
  if (tracer_ != nullptr) tracer_->Record(sig_fault_, sim_.now(), 0);
  state_ = State::kTranslating;
  observations_ = 0;
  observe_floor_ = sim_.now();
  if (ObservationsNeeded() == 0) {
    Translate();
  } else if (own_domain_ != nullptr) {
    own_domain_->Kick();
  }
  if (fault_plan_ &&
      fault_plan_->ShouldInject(FaultSite::kSpuriousFault)) {
    // A glitch re-raises the page-fault line after the fault was
    // already serviced. The VIM's idempotent handler must notice that
    // SR no longer shows a pending fault and ignore the edge.
    irq_.Raise(InterruptCause::kPageFault);
  }
}

void Imu::AttachTracer(sim::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  sig_access_ = tracer_->AddSignal("cp_access", 1);
  sig_wr_ = tracer_->AddSignal("cp_wr", 1);
  sig_obj_ = tracer_->AddSignal("cp_obj", 4);
  sig_addr_ = tracer_->AddSignal("cp_addr", 28);
  sig_tlbhit_ = tracer_->AddSignal("cp_tlbhit", 1);
  sig_din_ = tracer_->AddSignal("cp_din", 32);
  sig_fault_ = tracer_->AddSignal("imu_fault", 1);
}

// ----- CoprocessorPort -----

bool Imu::CanIssue() const {
  return started_ && state_ == State::kIdle && (cr_ & kCrEnable) != 0;
}

void Imu::Issue(const CpAccess& access) {
  VCOP_CHECK_MSG(CanIssue(), "Issue on a busy or stopped interface");
  current_ = access;
  issue_time_ = sim_.now();
  observe_floor_ = sim_.now();
  observations_ = 0;
  ++stats_.accesses;
  if (access.write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  if (page_ref_probe_ && elem_width_[access.object] != 0) {
    const u64 offset =
        static_cast<u64>(access.index) * elem_width_[access.object];
    page_ref_probe_(access.object,
                    static_cast<mem::VirtPage>(
                        offset >> ObjectPageShift(access.object)));
  }
  if (tracer_ != nullptr) {
    const Picoseconds now = sim_.now();
    if (trace_deassert_at_.has_value() && *trace_deassert_at_ < now) {
      // The previous access's strobes dropped before this issue.
      tracer_->Record(sig_access_, *trace_deassert_at_, 0);
      tracer_->Record(sig_tlbhit_, *trace_deassert_at_, 0);
    }
    trace_deassert_at_.reset();
    tracer_->Record(sig_access_, now, 1);
    tracer_->Record(sig_tlbhit_, now, 0);
    tracer_->Record(sig_wr_, now, access.write ? 1 : 0);
    tracer_->Record(sig_obj_, now, access.object);
    tracer_->Record(sig_addr_, now, access.index);
  }
  posted_ = config_.posted_writes && access.write;
  cp_consumed_ = false;
  if (posted_ && cp_domain_ != nullptr) {
    // Early acknowledgement: visible at the core's next rising edge.
    const Frequency f = cp_domain_->frequency();
    ack_at_ = f.EdgeTime(f.CyclesAt(sim_.now()) + 1);
    cp_domain_->KickAt(ack_at_);
  }
  state_ = State::kTranslating;
  if (ObservationsNeeded() == 0) {
    Translate();
  } else if (TryFastForward()) {
    // Resolved analytically; the IMU clock never wakes for this access.
  } else if (own_domain_ != nullptr) {
    own_domain_->Kick();
  }
}

bool Imu::ResponseReady() const {
  if (posted_ && !cp_consumed_) return sim_.now() >= ack_at_;
  return state_ == State::kResponding && sim_.now() >= ready_at_;
}

u32 Imu::ConsumeResponse() {
  VCOP_CHECK_MSG(ResponseReady(), "ConsumeResponse before CP_TLBHIT");
  if (posted_) {
    cp_consumed_ = true;
    if (state_ == State::kResponding || state_ == State::kIdle) {
      // Already retired in the background.
      state_ = State::kIdle;
      posted_ = false;
    }
    // Otherwise the buffer is still draining (translating or waiting
    // for the OS); CanIssue stays false until it retires.
    if (tracer_ != nullptr) trace_deassert_at_ = NextOwnEdgeTime();
    return 0;
  }
  state_ = State::kIdle;
  if (tracer_ != nullptr) {
    // Hold the strobes through the consuming edge; they drop on the
    // following edge unless a new access re-asserts them first.
    trace_deassert_at_ = NextOwnEdgeTime();
  }
  return rdata_;
}

void Imu::ReleaseParamPage() {
  const std::optional<u32> idx = tlb_.Probe(kParamObject, 0, asid_);
  if (idx.has_value()) tlb_.Invalidate(*idx);
  sr_ |= kSrParamReleased;
  if (param_release_hook_) param_release_hook_();
}

void Imu::SignalFinish() {
  VCOP_CHECK_MSG(started_, "CP_FIN while not started");
  if (posted_ && state_ != State::kIdle) {
    // A posted write is still draining; raise the end interrupt once it
    // retires so the OS never sweeps a page with a write in flight.
    finish_pending_ = true;
    return;
  }
  VCOP_CHECK_MSG(state_ == State::kIdle,
                 "CP_FIN with an access outstanding");
  if (tracer_ != nullptr && trace_deassert_at_.has_value()) {
    tracer_->Record(sig_access_, *trace_deassert_at_, 0);
    tracer_->Record(sig_tlbhit_, *trace_deassert_at_, 0);
    trace_deassert_at_.reset();
  }
  started_ = false;
  sr_ &= ~kSrBusy;
  sr_ |= kSrEndPending;
  irq_.Raise(InterruptCause::kEndOfOperation);
}

// ----- ClockedModule -----

void Imu::OnRisingEdge() {
  if (state_ != State::kTranslating) return;
  if (sim_.now() <= observe_floor_) return;
  ++observations_;
  if (observations_ >= ObservationsNeeded()) Translate();
}

bool Imu::active() const { return state_ == State::kTranslating; }

u64 Imu::NextInterestingEdge(Picoseconds next_edge_time) const {
  if (state_ != State::kTranslating) return kNeverInteresting;
  // Edges at or before the observation floor do not count (OnRisingEdge
  // ignores them); by grid monotonicity at most the upcoming edge can
  // be at or below the floor.
  const u64 need = ObservationsNeeded() - observations_;
  return next_edge_time <= observe_floor_ ? need + 1 : need;
}

void Imu::OnEdgesSkipped(u64 count, Picoseconds first_edge_time) {
  if (state_ != State::kTranslating) return;
  // Mirror OnRisingEdge for each skipped edge: every one strictly after
  // the floor counts as an observation. Only the first skipped edge can
  // be at or below the floor (edge times strictly increase).
  observations_ +=
      static_cast<u32>(count - (first_edge_time <= observe_floor_ ? 1 : 0));
}

// ----- internals -----

Picoseconds Imu::NextOwnEdgeTime() const {
  VCOP_CHECK_MSG(own_domain_ != nullptr, "IMU clock not bound");
  const Picoseconds now = sim_.now();
  if (!next_edge_memo_valid_ || next_edge_memo_for_ != now) {
    next_edge_memo_ = own_domain_->NextEdgeTimeAfterNow();
    next_edge_memo_for_ = now;
    next_edge_memo_valid_ = true;
  }
  return next_edge_memo_;
}

Picoseconds Imu::OwnEdgeStrictlyAfter(Picoseconds t) const {
  const Frequency f = own_domain_->frequency();
  return f.EdgeTime(f.CyclesAt(t) + 1);
}

bool Imu::TryFastForward() {
  if (sim_.engine() == sim::Engine::kReference) return false;
  if (own_domain_ == nullptr || cp_domain_ == nullptr) return false;
  // Uncertain edges the analytic path cannot model: a posted write's
  // independent ack/retire lifecycle, waveform tracing of the
  // in-between edges, or an OS veto (background VIM activity that may
  // touch translations). Armed CP-port fault sites need no veto:
  // TranslateAt replays their RNG draws at the same simulated time and
  // in the same order as the cycle engine (the AnalyticJumpAllowed
  // check below admits the jump only when nothing else can interleave
  // a draw), and its hang/stall outcomes depend only on `when`.
  if (posted_ || tracer_ != nullptr) return false;
  if (ff_gate_ && !ff_gate_()) return false;
  // Pure hit probe, mirroring TranslateAt's lookup exactly: the access
  // must translate without a fault of any kind. Nothing can change the
  // TLB between this probe and the analytic TranslateAt below — the
  // AnalyticJumpAllowed check admits the jump only when no event is
  // pending at or before the translation-complete edge.
  const u32 width = elem_width_[current_.object];
  if (width == 0) return false;
  if (config_.bounds_check && elem_limit_[current_.object] != 0 &&
      current_.index >= elem_limit_[current_.object]) {
    return false;
  }
  const u64 offset = static_cast<u64>(current_.index) * width;
  const mem::VirtPage vpage = static_cast<mem::VirtPage>(
      offset >> ObjectPageShift(current_.object));
  const TcEntry& tc = tc_[current_.object];
  if (!(tc.valid && tc.generation == tlb_.generation() &&
        tc.vpage == vpage)) {
    const std::optional<u32> idx = tlb_.Probe(current_.object, vpage, asid_);
    // Probe does not screen parity like Lookup does: a corrupt match
    // would be a miss on the real path, so it declines the jump here.
    if (!idx.has_value() || !tlb_.entry(*idx).parity_ok) return false;
  }
  // The whole burst on the clock grid: with N observation edges needed
  // strictly after the issue edge, translation completes at the Nth
  // IMU edge after the one at or before issue time, and data is valid
  // on the edge after that (exactly where the cycle-stepped engine
  // lands — see NextInterestingEdge/OnRisingEdge).
  const Frequency f = own_domain_->frequency();
  const u64 base = f.CyclesAt(sim_.now());
  const Picoseconds translate_time = f.EdgeTime(base + ObservationsNeeded());
  if (!sim_.AnalyticJumpAllowed(translate_time)) return false;
  TranslateAt(translate_time);
  return true;
}

void Imu::TranslateAt(Picoseconds when) {
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kCpHang)) {
    // The datapath wedges: no DP-RAM access, no fault, no kick. The
    // clock domain goes idle and only the VIM's watchdog (which sees no
    // progress) can recover via HardStop + abort.
    state_ = State::kHung;
    return;
  }
  const u32 width = elem_width_[current_.object];
  const bool limit_violation =
      config_.bounds_check && elem_limit_[current_.object] != 0 &&
      current_.index >= elem_limit_[current_.object];
  std::optional<u32> entry;
  u64 offset = 0;
  if (width != 0 && !limit_violation) {
    offset = static_cast<u64>(current_.index) * width;
    const mem::VirtPage vpage = static_cast<mem::VirtPage>(
        offset >> ObjectPageShift(current_.object));
    TcEntry& tc = tc_[current_.object];
    if (sim_.engine() == sim::Engine::kFast && tc.valid &&
        tc.generation == tlb_.generation() && tc.vpage == vpage) {
      // Same page as this object's last hit and the TLB has not changed
      // since: skip the CAM scan. NoteHit leaves statistics and the
      // accessed bit exactly as a matching Lookup would.
      tlb_.NoteHit(tc.index);
      entry = tc.index;
    } else {
      entry = tlb_.Lookup(current_.object, vpage, asid_);
      tc.valid = entry.has_value();
      if (tc.valid) {
        tc.generation = tlb_.generation();
        tc.vpage = vpage;
        tc.index = *entry;
      }
    }
  } else {
    // Limit violation, or an access to an object the OS never
    // described: always a fault; the VIM will fail the run with a
    // diagnostic (there is no mapping to provide). Counted as a TLB
    // miss for consistency.
    entry = std::nullopt;
  }

  if (limit_violation) sr_ |= kSrLimitFault;
  if (!entry.has_value()) {
    ar_ = PackAr(current_.object, current_.index);
    sr_ |= kSrFaultPending;
    state_ = State::kFaultStalled;
    fault_raised_at_ = when;
    ++stats_.faults;
    if (tracer_ != nullptr) tracer_->Record(sig_fault_, when, 1);
    VCOP_LOG(kDebug, StrFormat("IMU fault: obj=%u index=%u",
                               current_.object, current_.index));
    irq_.Raise(InterruptCause::kPageFault);
    return;
  }

  const TlbEntry& e = tlb_.entry(*entry);
  // Page offset under the object's own page size: a superpage maps a
  // contiguous run of frames starting at e.frame, so the offset can
  // safely extend past the first frame.
  const u32 page_off = static_cast<u32>(
      offset & ((u64{1} << ObjectPageShift(current_.object)) - 1));
  const u32 paddr = geometry_.FrameBase(e.frame) + page_off;
  if (current_.write) {
    dp_ram_.WriteWord(mem::DualPortRam::Port::kCoprocessor, paddr, width,
                      current_.wdata);
    tlb_.MarkDirty(*entry);
    rdata_ = 0;
  } else {
    rdata_ =
        dp_ram_.ReadWord(mem::DualPortRam::Port::kCoprocessor, paddr, width);
  }
  ar_ = PackAr(current_.object, current_.index);

  ready_at_ = when == sim_.now() ? NextOwnEdgeTime() : OwnEdgeStrictlyAfter(when);
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kCpStall)) {
    // The port holds CP_TLBHIT low for extra cycles (e.g. DP-RAM
    // arbitration loss); the access completes late but correctly.
    ready_at_ += own_domain_->frequency().Duration(16);
  }
  stats_.access_latency_time += ready_at_ - issue_time_;
  if (posted_) {
    // Background retirement of the posted write; the core was (or will
    // be) acknowledged independently at ack_at_.
    if (cp_consumed_) {
      state_ = State::kIdle;
      posted_ = false;
      if (finish_pending_) {
        finish_pending_ = false;
        SignalFinish();
      }
    } else {
      state_ = State::kResponding;
    }
    return;
  }
  state_ = State::kResponding;
  if (tracer_ != nullptr) {
    tracer_->Record(sig_tlbhit_, ready_at_, 1);
    if (!current_.write) tracer_->Record(sig_din_, ready_at_, rdata_);
  }
  if (cp_domain_ != nullptr) {
    // Wake the coprocessor exactly when the data becomes valid; its
    // next grid edge at or after ready_at_ samples CP_TLBHIT high.
    cp_domain_->KickAt(ready_at_);
  }
}

}  // namespace vcop::hw
