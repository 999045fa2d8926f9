#include "hw/coprocessor.h"

#include <algorithm>

namespace vcop::hw {

void Coprocessor::Start(u32 num_params) {
  VCOP_CHECK_MSG(port_ != nullptr, "coprocessor started with no port bound");
  VCOP_CHECK_MSG(phase_ == Phase::kIdle, "coprocessor already running");
  params_.assign(std::max(num_params, required_params()), 0);
  params_read_ = 0;
  finished_once_ = false;
  cycles_run_ = 0;
  outstanding_ = false;
  delay_cycles_ = 0;
  phase_ = Phase::kParamFetch;
}

void Coprocessor::Abort() {
  phase_ = Phase::kIdle;
  outstanding_ = false;
  delay_cycles_ = 0;
}

void Coprocessor::OnRisingEdge() {
  if (phase_ == Phase::kIdle) return;
  ++cycles_run_;
  if (delay_cycles_ > 0) {
    // Mid-BeginDelay: the edge is consumed by the modelled compute
    // latency; the FSM does not step.
    --delay_cycles_;
    return;
  }
  consumed_this_tick_ = false;
  if (phase_ == Phase::kParamFetch) {
    StepParamFetch();
    return;
  }
  Step();
  if (phase_ == Phase::kRunning && consumed_this_tick_ && !outstanding_ &&
      port_->BackToBack()) {
    if (delay_cycles_ > 0) {
      // The consume edge overlaps the first delay cycle, exactly as a
      // hand-written countdown state stepping on this edge would.
      --delay_cycles_;
    } else {
      // Pipelined interface: the FSM may launch its next access in the
      // same cycle it captured the previous response (Mealy-style issue).
      consumed_this_tick_ = false;
      Step();
    }
  }
}

bool Coprocessor::active() const {
  if (phase_ == Phase::kIdle) return false;
  // Blocked on an in-flight access: the IMU wakes our clock domain when
  // the response (or the fault resolution) lands.
  if (outstanding_ && !port_->ResponseReady()) return false;
  return true;
}

u64 Coprocessor::NextInterestingEdge(Picoseconds next_edge_time) const {
  (void)next_edge_time;
  if (phase_ == Phase::kIdle) return kNeverInteresting;
  if (outstanding_ && !port_->ResponseReady()) return kNeverInteresting;
  // Delay edges just burn down the countdown; the FSM steps again on
  // the (delay_cycles_ + 1)-th edge from here.
  if (delay_cycles_ > 0) return static_cast<u64>(delay_cycles_) + 1;
  return 1;
}

void Coprocessor::OnEdgesSkipped(u64 count, Picoseconds first_edge_time) {
  (void)first_edge_time;
  if (phase_ == Phase::kIdle) return;
  // Each skipped edge would have run OnRisingEdge: the cycle counter
  // advances regardless, and delay edges burn the countdown. (Skipped
  // edges never step the FSM — the hints above guarantee the FSM only
  // needed the countdown or was blocked.)
  cycles_run_ += count;
  const u64 burned = std::min<u64>(count, delay_cycles_);
  delay_cycles_ -= static_cast<u32>(burned);
}

bool Coprocessor::StepParamFetch() {
  if (params_read_ < params_.size()) {
    u32 value = 0;
    if (TryRead(kParamObject, params_read_, value)) {
      params_[params_read_] = value;
      ++params_read_;
    }
  }
  if (params_read_ >= params_.size()) {
    // "When the parameters are read, the coprocessor finishes
    // initialisation and continues with normal operation. At the same
    // time it invalidates the parameter-passing page." (§3.2)
    port_->ReleaseParamPage();
    OnStart();
    phase_ = Phase::kRunning;
    return true;
  }
  return false;
}

bool Coprocessor::TryRead(ObjectId object, u32 index, u32& out) {
  VCOP_CHECK_MSG(port_ != nullptr, "no port bound");
  if (outstanding_) {
    VCOP_CHECK_MSG(!outstanding_access_.write &&
                       outstanding_access_.object == object &&
                       outstanding_access_.index == index,
                   "FSM changed its access target while one is in flight");
    if (!port_->ResponseReady()) return false;
    out = port_->ConsumeResponse();
    outstanding_ = false;
    consumed_this_tick_ = true;
    return true;
  }
  if (port_->CanIssue()) {
    outstanding_access_ = CpAccess{object, index, /*write=*/false, 0};
    port_->Issue(outstanding_access_);
    outstanding_ = true;
  }
  return false;
}

bool Coprocessor::TryWrite(ObjectId object, u32 index, u32 value) {
  VCOP_CHECK_MSG(port_ != nullptr, "no port bound");
  if (outstanding_) {
    VCOP_CHECK_MSG(outstanding_access_.write &&
                       outstanding_access_.object == object &&
                       outstanding_access_.index == index,
                   "FSM changed its access target while one is in flight");
    if (!port_->ResponseReady()) return false;
    port_->ConsumeResponse();
    outstanding_ = false;
    consumed_this_tick_ = true;
    return true;
  }
  if (port_->CanIssue()) {
    outstanding_access_ = CpAccess{object, index, /*write=*/true, value};
    port_->Issue(outstanding_access_);
    outstanding_ = true;
  }
  return false;
}

void Coprocessor::Finish() {
  VCOP_CHECK_MSG(phase_ == Phase::kRunning, "Finish outside a run");
  VCOP_CHECK_MSG(!outstanding_, "Finish with an access outstanding");
  phase_ = Phase::kIdle;
  finished_once_ = true;
  port_->SignalFinish();
}

}  // namespace vcop::hw
