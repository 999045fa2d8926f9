// The Simulator: event loop + clock-domain registry.
//
// Modelled hardware (IMU, coprocessors) lives on ClockDomains that tick
// their modules on rising edges; modelled software (the OS cost model)
// schedules plain timed events. Both share one timeline.
//
// One switch, Engine, picks how the host walks that timeline: kFast
// (the default) skips, coalesces and fast-forwards uneventful edges;
// kReference dispatches one event per edge. Simulated results are the
// same under both.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"

namespace vcop::sim {

/// Which host-side engine dispatches the simulation. Both produce
/// bit-identical simulated timestamps, tick counts, statistics and
/// results (tests/fastforward_diff_test); they differ only in how many
/// events the host dispatches to get there.
enum class Engine : u8 {
  /// The default. Four optimisations, all on together:
  ///   - edge batching: honour ClockedModule::NextInterestingEdge hints
  ///     and schedule one event at the next interesting edge instead of
  ///     one per edge;
  ///   - tick coalescing: a clock domain runs up to a fixed number of
  ///     its own interesting edges in one dispatched event while no
  ///     other pending event would interleave;
  ///   - the IMU's last-translation cache, which skips the CAM scan
  ///     while the TLB is unchanged;
  ///   - fast-forward: models complete a provably uneventful stretch
  ///     analytically. The IMU resolves a guaranteed TLB-hit access at
  ///     issue time from the clock grid, and a dormant clock domain
  ///     resumes at a demanded future edge inside the current event.
  ///     Both jumps are admitted per instance by AnalyticJumpAllowed /
  ///     InlineTickAllowed, which decline at every uncertain edge
  ///     (pending event, horizon, fired stop predicate).
  kFast,
  /// The original event-per-edge engine, all four off: the oracle the
  /// differential tests and bench_fastforward compare kFast against.
  kReference,
};

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable: clock domains hold back-references.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Creates a clock domain ticking at `freq`. Domains created earlier
  /// dispatch first on coincident edges (see EventQueue ordering) —
  /// create the IMU's domain before the coprocessor's.
  ClockDomain& AddClockDomain(std::string name, Frequency freq);

  /// Schedules a one-shot action at absolute time `t` (>= now()).
  void ScheduleAt(Picoseconds t, EventQueue::Action action) {
    queue_.ScheduleAt(t, std::move(action));
  }

  /// Schedules an action `delay` after now().
  void ScheduleAfter(Picoseconds delay, EventQueue::Action action) {
    queue_.ScheduleAt(queue_.now() + delay, std::move(action));
  }

  /// Runs until `predicate` returns true (checked after every event),
  /// the queue drains, or `max_events` more events have been dispatched.
  /// Returns true iff the predicate fired.
  bool RunUntil(const std::function<bool()>& predicate,
                u64 max_events = kDefaultMaxEvents);

  /// Runs until the queue is empty or `max_events` dispatched.
  /// Returns true iff the queue drained.
  bool RunToIdle(u64 max_events = kDefaultMaxEvents);

  /// Dispatches events up to and including time `t`.
  void RunUntilTime(Picoseconds t);

  Picoseconds now() const { return queue_.now(); }
  u64 events_dispatched() const { return queue_.dispatched(); }
  EventQueue& queue() { return queue_; }

  Engine engine() const { return engine_; }
  void set_engine(Engine engine) { engine_ = engine; }

  /// Whether a clock domain may run an edge at time `t` (with the
  /// domain's coincident-edge `priority`) inline in the event it is
  /// currently dispatching, instead of scheduling it. Allowed only
  /// while that preserves the exact global dispatch order: no pending
  /// event may sort before (t, priority), the active RunUntil predicate
  /// must not have fired, and `t` must not pass a RunUntilTime horizon.
  bool InlineTickAllowed(Picoseconds t, u32 priority) const {
    if (engine_ == Engine::kReference) return false;
    if (t > horizon_) return false;
    if (!queue_.empty()) {
      const Picoseconds head = queue_.NextTime();
      if (head < t) return false;
      if (head == t && queue_.NextPriority() < priority) return false;
    }
    if (run_predicate_ != nullptr && (*run_predicate_)()) return false;
    return true;
  }

  /// Whether a model may complete work scheduled to finish at time `t`
  /// analytically, right now, without dispatching the events in
  /// between. Allowed only under Engine::kFast and only while
  /// nothing could interleave before `t`: no pending event at or before
  /// `t` (which could change the state the analytic result depends on —
  /// TLB content, fault-plan opportunity order), `t` within any
  /// RunUntilTime horizon, and the active RunUntil predicate not fired.
  bool AnalyticJumpAllowed(Picoseconds t) const {
    if (engine_ == Engine::kReference) return false;
    if (t > horizon_) return false;
    if (!queue_.empty() && queue_.NextTime() <= t) return false;
    if (run_predicate_ != nullptr && (*run_predicate_)()) return false;
    return true;
  }

  /// End-of-run check: drains whatever is still pending (stale
  /// clock-domain tokens, superseded wake events) and asserts, in
  /// every build, that the residue was quiescent: the queue drains
  /// and no clock domain ticks another edge while doing so. A domain
  /// that still ticks means a trailing event carrying real work was
  /// silently dropped by the caller's stop condition. Returns the
  /// number of residual events dispatched.
  u64 DrainAssertQuiescent();

  /// Default per-Run dispatch budget: generous for our workloads (a full
  /// 32 KB IDEA run is under ~2M edges) but finite, so a wedged model
  /// fails loudly instead of spinning forever.
  static constexpr u64 kDefaultMaxEvents = 500'000'000;

 private:
  static constexpr Picoseconds kNoHorizon =
      std::numeric_limits<Picoseconds>::max();

  EventQueue queue_;
  std::vector<std::unique_ptr<ClockDomain>> domains_;
  Engine engine_ = Engine::kFast;
  Picoseconds horizon_ = kNoHorizon;
  const std::function<bool()>* run_predicate_ = nullptr;
};

}  // namespace vcop::sim
