// Discrete-event queue: the heart of the simulation kernel.
//
// Events are (timestamp, priority, sequence) ordered; sequence numbers
// make same-timestamp ordering deterministic (FIFO among equal times),
// which matters when clock domains share edges — e.g. the 24 MHz IMU
// clock and the 6 MHz IDEA core clock coincide every fourth IMU edge,
// and the IMU must tick first so that data asserted "on the 4th rising
// edge" (paper Figure 7) is visible to the coprocessor sampling that
// edge.
//
// The storage is an owned 4-ary heap of plain (time, priority, seq,
// slot) keys over a stable pool of inline small-buffer callbacks
// (InlineFunction): pushing or popping an event performs no heap
// allocation for captures up to InlineFunction::kInlineBytes, and
// DispatchOne moves the winning callback out of its pool slot before
// running it (no const_cast through priority_queue::top, which the
// previous implementation needed). Keeping the callbacks out of the
// heap array matters: sift moves then shuffle 24-byte keys instead of
// relocating whole callback buffers through their type-erased move op.
// A 4-ary layout halves the tree depth of a binary heap, trading
// slightly wider sift-down comparisons for fewer entry moves.
#pragma once

#include <limits>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "sim/inline_function.h"

namespace vcop::sim {

/// A time-ordered queue of callbacks.
///
/// Same-timestamp events dispatch by ascending `priority`, then FIFO.
/// Clock domains use their creation index as priority so that, on
/// coincident edges, the earlier-created domain always ticks first —
/// regardless of when each domain's edge event happened to be enqueued.
class EventQueue {
 public:
  using Action = InlineFunction;

  /// Priority of events scheduled without an explicit one: after all
  /// clock edges of that timestamp, however many domains exist
  /// (Simulator::AddClockDomain keeps every domain index below it).
  static constexpr u32 kDefaultPriority = std::numeric_limits<u32>::max();

  /// Schedules `action` at absolute time `t`. `t` must not be earlier
  /// than the timestamp of the event currently being dispatched.
  void ScheduleAt(Picoseconds t, Action action) {
    ScheduleAt(t, kDefaultPriority, std::move(action));
  }

  /// Same, with an explicit same-timestamp priority (lower runs first).
  void ScheduleAt(Picoseconds t, u32 priority, Action action);

  /// True when no events remain.
  bool empty() const { return heap_.empty(); }

  usize size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  Picoseconds NextTime() const;

  /// Priority of the earliest pending event. Precondition: !empty().
  u32 NextPriority() const;

  /// Pops and runs the earliest event; advances now(). Precondition:
  /// !empty().
  void DispatchOne();

  /// Advances now() without dispatching — used by clock domains that
  /// coalesce several of their own edges into one dispatched event.
  /// `t` must not pass the earliest pending event.
  void AdvanceNow(Picoseconds t);

  /// Current simulation time: the timestamp of the last dispatched
  /// event (0 before any dispatch).
  Picoseconds now() const { return now_; }

  /// Total number of events dispatched so far. Edges a clock domain
  /// skips or coalesces never appear here — this is the host-side work
  /// metric the engine comparisons (bench_fastforward, perfbench's
  /// sim.events) report.
  u64 dispatched() const { return dispatched_; }

 private:
  struct Entry {
    Picoseconds time;
    u32 priority;
    u32 slot;  // index into slots_; callbacks never move during sifts
    u64 seq;
  };

  /// Strict ordering: earlier (time, priority, seq) dispatches first.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq < b.seq;
  }

  void SiftUp(usize i);
  void SiftDown(usize i);

  std::vector<Entry> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
  std::vector<Action> slots_;     // one live callback per pending event
  std::vector<u32> free_slots_;   // recycled slots_ indices
  Picoseconds now_ = 0;
  u64 next_seq_ = 0;
  u64 dispatched_ = 0;
};

}  // namespace vcop::sim
