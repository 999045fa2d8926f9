#include "sim/simulator.h"

namespace vcop::sim {

ClockDomain& Simulator::AddClockDomain(std::string name, Frequency freq) {
  VCOP_CHECK_MSG(domains_.size() < EventQueue::kDefaultPriority,
                 "clock domain index would sort after plain events");
  const u32 priority = static_cast<u32>(domains_.size());
  domains_.push_back(
      std::make_unique<ClockDomain>(*this, std::move(name), freq, priority));
  return *domains_.back();
}

bool Simulator::RunUntil(const std::function<bool()>& predicate,
                         u64 max_events) {
  // Expose the stop predicate so clock domains stop coalescing ticks
  // the moment it fires — the loop below must observe the same
  // post-event states it would without coalescing.
  const std::function<bool()>* saved = run_predicate_;
  run_predicate_ = &predicate;
  bool fired = false;
  if (predicate()) {
    fired = true;
  } else {
    for (u64 i = 0; i < max_events && !queue_.empty(); ++i) {
      queue_.DispatchOne();
      if (predicate()) {
        fired = true;
        break;
      }
    }
  }
  run_predicate_ = saved;
  return fired;
}

bool Simulator::RunToIdle(u64 max_events) {
  for (u64 i = 0; i < max_events; ++i) {
    if (queue_.empty()) return true;
    queue_.DispatchOne();
  }
  return queue_.empty();
}

u64 Simulator::DrainAssertQuiescent() {
  u64 edges_before = 0;
  for (const auto& d : domains_) edges_before += d->edges_ticked();
  const u64 dispatched_before = queue_.dispatched();
  const bool drained = RunToIdle();
  u64 edges_after = 0;
  for (const auto& d : domains_) edges_after += d->edges_ticked();
  VCOP_CHECK_MSG(drained, "event queue failed to drain at end of run");
  VCOP_CHECK_MSG(edges_after == edges_before,
                 "trailing events still ticked clock edges at end of run");
  return queue_.dispatched() - dispatched_before;
}

void Simulator::RunUntilTime(Picoseconds t) {
  // The horizon keeps coalescing domains from running edges past `t`
  // inside the final dispatched event.
  const Picoseconds saved = horizon_;
  horizon_ = t;
  while (!queue_.empty() && queue_.NextTime() <= t) {
    queue_.DispatchOne();
  }
  horizon_ = saved;
}

}  // namespace vcop::sim
