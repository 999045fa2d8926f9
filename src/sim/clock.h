// Clock domains and clocked modules.
//
// A ClockDomain ticks its attached modules on every rising edge while at
// least one module reports active(); it then goes dormant and must be
// Kick()ed to resume. Edge timestamps come from Frequency::EdgeTime's
// global grid, so a dormant period never shifts the phase of the clock —
// exactly like gating a real oscillator-derived clock.
//
// Edge batching: a module that knows it has nothing to do for the next
// N-1 edges (an IMU counting translation cycles, a coprocessor burning
// a fixed compute delay) reports that through NextInterestingEdge();
// the domain then schedules one event at the Nth edge and credits the
// skipped edges through OnEdgesSkipped() when it fires. The interesting
// edge itself is always *ticked* (OnRisingEdge runs at its exact
// timestamp), so edge-accurate behaviour — translation at the 4th
// rising edge, Figure 7 — is preserved while the event count drops by
// the batch factor. External state changes that make an earlier edge
// interesting must Kick()/KickAt() the domain, which pulls the pending
// event forward; batching can only ever be cancelled early, never
// overshoot.
#pragma once

#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::sim {

class Simulator;

/// Interface for hardware models driven by a clock edge.
class ClockedModule {
 public:
  virtual ~ClockedModule() = default;

  /// Returned by NextInterestingEdge when the module needs no edge at
  /// all until some external event Kick()s its domain.
  static constexpr u64 kNeverInteresting = ~0ULL;

  /// Called once per rising edge of the attached domain, in attach order.
  virtual void OnRisingEdge() = 0;

  /// While any attached module is active, the domain keeps ticking.
  /// An inactive module whose state is changed externally (a request
  /// arrives, the OS un-stalls it) must Kick() its domain.
  virtual bool active() const = 0;

  /// Batching hint: how many edges ahead, counting the upcoming edge
  /// (whose timestamp is `next_edge_time`) as 1, the module next needs
  /// OnRisingEdge to run. 1 (the default) means "tick every edge";
  /// kNeverInteresting means "none until kicked". Skipped edges are
  /// reported through OnEdgesSkipped before the interesting edge ticks.
  virtual u64 NextInterestingEdge(Picoseconds next_edge_time) const {
    (void)next_edge_time;
    return 1;
  }

  /// Batching credit: `count` edges starting at `first_edge_time` were
  /// skipped under this module's (or a co-attached module's) hint. The
  /// module must apply whatever per-edge bookkeeping OnRisingEdge would
  /// have done (cycle counters, delay countdowns) — re-checking its
  /// state first, since it may have changed since the hint was given.
  virtual void OnEdgesSkipped(u64 count, Picoseconds first_edge_time) {
    (void)count;
    (void)first_edge_time;
  }
};

class ClockDomain {
 public:
  /// Constructed via Simulator::AddClockDomain. `priority` orders
  /// coincident edges across domains (lower ticks first; the Simulator
  /// assigns creation order).
  ClockDomain(Simulator& sim, std::string name, Frequency freq,
              u32 priority);

  ClockDomain(const ClockDomain&) = delete;
  ClockDomain& operator=(const ClockDomain&) = delete;

  /// Attaches a module; modules tick in attach order. The module must
  /// outlive the domain's last tick.
  void Attach(ClockedModule& module);

  /// Ensures the domain is scheduled for its next grid edge at or after
  /// the current simulation time. Idempotent while a pending edge is
  /// already at or before that point; pulls a batched-ahead pending
  /// edge back otherwise.
  void Kick();

  /// Ensures the domain ticks its first grid edge at or after time `t`
  /// (>= now). This is how a module wakes a *different* domain for a
  /// known future time — e.g. the IMU waking the coprocessor clock at
  /// the data-valid edge — without an intermediate trampoline event.
  void KickAt(Picoseconds t);

  const std::string& name() const { return name_; }
  Frequency frequency() const { return freq_; }
  u32 priority() const { return priority_; }

  /// Number of rising edges elapsed while running (batched/skipped
  /// edges count: they occurred, the modules just did not need them).
  u64 edges_ticked() const { return edges_ticked_; }

  /// Timestamp of the first grid edge strictly after the current
  /// simulation time. Cheap while this domain's own tick is running —
  /// the current edge index is already known, so no time->cycle
  /// conversion is needed.
  Picoseconds NextEdgeTimeAfterNow() const;

 private:
  /// Earliest not-yet-elapsed grid edge at or after time `t`.
  u64 FirstEdgeAtOrAfter(Picoseconds t) const;

  /// Applies module hints to pick the edge to actually tick, starting
  /// from `candidate` (whose grid timestamp the caller already knows).
  /// Returns candidate when batching is disabled or no module asks to
  /// skip. Never overshoots an outstanding demand.
  u64 ApplyHints(u64 candidate, Picoseconds candidate_time) const;

  void ScheduleTick(u64 edge);
  void ScheduleTick(u64 edge, Picoseconds edge_time);
  void TickEvent(u64 token);
  void EraseMetDemands(u64 ticked_edge);

  Simulator& sim_;
  std::string name_;
  Frequency freq_;
  u32 priority_;
  std::vector<ClockedModule*> modules_;
  u64 next_edge_ = 0;     // earliest edge not yet ticked or credited
  u64 pending_edge_ = 0;  // edge the live scheduled event will tick
  Picoseconds pending_time_ = 0;  // timestamp of pending_edge_
  u64 token_ = 0;         // invalidates superseded edge events
  bool scheduled_ = false;
  bool in_tick_ = false;  // TickEvent loop is on the call stack
  // The pending event resumes the domain from dormancy: the edges slept
  // through until it fires never happen (no tick, no credit), and an
  // earlier kick arriving first may still pull the resume point back.
  bool pending_is_resume_ = false;
  u64 edges_ticked_ = 0;
  // Memo for FirstEdgeAtOrAfter's time->grid-edge conversion. The grid
  // is immutable, so the entry is keyed on the query time alone; bursts
  // of kicks at one timestamp (every module issuing during a tick) then
  // cost one divide instead of one each. (0,0) is a correct entry: edge
  // 0 is at t=0.
  mutable Picoseconds grid_memo_t_ = 0;
  mutable u64 grid_memo_edge_ = 0;
  // Outstanding KickAt demands: edges promised to tick even though the
  // modules' own hints cannot foresee them (e.g. the IMU waking the
  // coprocessor clock at a future data-valid time). A demand is met by
  // ticking exactly that edge; batching never skips past one, and the
  // domain re-arms instead of going dormant while one is pending.
  // Almost always empty or a single element.
  std::vector<u64> demands_;
};

}  // namespace vcop::sim
