// Interrupt line from the IMU to the processor (INT_PLD in Figure 4).
#pragma once

#include <functional>

#include "base/fault.h"
#include "base/status.h"
#include "base/types.h"

namespace vcop::hw {

enum class InterruptCause : u8 {
  kPageFault = 1,       // TLB miss: OS must (re)map a page (§3.3)
  kEndOfOperation = 2,  // CP_FIN: OS must copy back dirty data (§3.3)
};

/// A single edge-triggered interrupt line. The handler runs at the
/// simulation timestamp of Raise(); the OS models its own handling
/// latency by scheduling follow-up events.
class InterruptLine {
 public:
  using Handler = std::function<void(InterruptCause)>;

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Installs (or clears) the fault plan consulted on every edge.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Signals the processor. A handler must be connected — the platform
  /// wiring installs it before any coprocessor can run. Under a fault
  /// plan the edge can be lost (never reaches the CPU) or seen twice.
  void Raise(InterruptCause cause) {
    VCOP_CHECK_MSG(static_cast<bool>(handler_),
                   "interrupt raised with no handler connected");
    if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kIrqDrop)) {
      return;
    }
    if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kIrqDuplicate)) {
      handler_(cause);
    }
    handler_(cause);
  }

 private:
  Handler handler_;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace vcop::hw
