// Portable coprocessor base class — the C++ analogue of the paper's
// Figure-5 coding style for coprocessors.
//
// A concrete coprocessor is a clocked FSM that addresses its operands
// purely as (object id, element index); it never sees physical
// addresses, the interface-memory size, or the platform bus. The base
// class provides:
//   * the CP_START / parameter-fetch phase (§3.2: "once its operation
//     is started, the coprocessor looks for parameters in a memory page
//     designated to parameter passing", then invalidates that page),
//   * TryRead/TryWrite access helpers that drive the port and model the
//     multi-cycle CP_TLBHIT handshake,
//   * CP_FIN signalling via Finish().
//
// Subclasses implement OnStart() (latch parameters, reset registers)
// and Step() (one FSM transition per rising clock edge).
#pragma once

#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/cp_port.h"
#include "sim/clock.h"

namespace vcop::hw {

class Coprocessor : public sim::ClockedModule {
 public:
  ~Coprocessor() override = default;

  /// Connects the coprocessor to the platform's interface. Done by the
  /// fabric at configuration time.
  void BindPort(CoprocessorPort& port) { port_ = &port; }

  /// CP_START: begins a run that first fetches `num_params` 32-bit
  /// scalar parameters from the parameter page (object kParamObject).
  /// Invoked by the platform (through the IMU start machinery).
  void Start(u32 num_params);

  /// Human-readable core name, e.g. "adpcmdecode".
  virtual std::string_view name() const = 0;

  /// Parameters the core reads, param(0) to param(n - 1). CP_START
  /// fetches at least this many, so a run passed fewer faults on the
  /// parameter object at the IMU, and the VIM fails it cleanly.
  virtual u32 required_params() const { return 0; }

  /// Emergency reset used by the OS abort path: the FSM returns to idle
  /// without signalling CP_FIN.
  void Abort();

  bool running() const { return phase_ != Phase::kIdle; }
  bool finished() const { return finished_once_; }

  /// Total rising edges consumed while running (the core's cycle count).
  u64 cycles_run() const { return cycles_run_; }

  // sim::ClockedModule:
  void OnRisingEdge() final;
  bool active() const final;
  /// Hint for the clock domain: during a BeginDelay countdown only the
  /// edge after the delay matters; while blocked on an access, no edge
  /// does (the interface wakes the clock). Otherwise every edge steps
  /// the FSM.
  u64 NextInterestingEdge(Picoseconds next_edge_time) const final;
  /// Credits batched-over edges exactly as OnRisingEdge would have
  /// counted them: cycles_run_ advances per edge and the delay
  /// countdown burns down.
  void OnEdgesSkipped(u64 count, Picoseconds first_edge_time) final;

 protected:
  /// Parameters fetched during the start-up phase.
  u32 param(usize i) const {
    VCOP_CHECK_MSG(i < params_.size(), "parameter index out of range");
    return params_[i];
  }
  usize num_params() const { return params_.size(); }

  /// Non-blocking element read. Returns false while the access is in
  /// flight; returns true exactly once, with the data in `out`, on the
  /// edge where CP_TLBHIT is sampled high. Call with the same
  /// (object, index) until it succeeds — the FSM stays in its state.
  bool TryRead(ObjectId object, u32 index, u32& out);

  /// Non-blocking element write with the same completion contract.
  bool TryWrite(ObjectId object, u32 index, u32 value);

  /// Asserts CP_FIN. Call from Step() when the computation is done.
  void Finish();

  /// Models a fixed compute latency: the FSM consumes the next `cycles`
  /// rising edges doing nothing observable (cycles_run advances), and
  /// Step() runs again on the edge after. Call from Step(), typically
  /// on the edge that captured the operands — identical timing to a
  /// hand-written countdown state, but the clock domain can batch the
  /// whole delay into a single event.
  void BeginDelay(u32 cycles) { delay_cycles_ = cycles; }

  /// Hook: parameters are available; initialise the FSM.
  virtual void OnStart() = 0;

  /// Hook: one clock cycle of the FSM.
  virtual void Step() = 0;

 private:
  enum class Phase { kIdle, kParamFetch, kRunning };

  bool StepParamFetch();

  CoprocessorPort* port_ = nullptr;
  Phase phase_ = Phase::kIdle;
  std::vector<u32> params_;
  u32 params_read_ = 0;
  bool finished_once_ = false;
  u64 cycles_run_ = 0;

  // Outstanding-access bookkeeping for TryRead/TryWrite.
  bool outstanding_ = false;
  CpAccess outstanding_access_{};
  bool consumed_this_tick_ = false;
  u32 delay_cycles_ = 0;  // remaining BeginDelay edges
};

}  // namespace vcop::hw
