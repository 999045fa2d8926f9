#include "sim/clock.h"

#include <algorithm>

#include "sim/simulator.h"

namespace vcop::sim {
namespace {

/// Cap on edges one dispatched event may coalesce under Engine::kFast;
/// bounds how long one event runs and keeps a perpetually-active domain
/// preemptible by the dispatch budget.
constexpr u32 kMaxInlineTicks = 64;

}  // namespace

ClockDomain::ClockDomain(Simulator& sim, std::string name, Frequency freq,
                         u32 priority)
    : sim_(sim), name_(std::move(name)), freq_(freq), priority_(priority) {
  VCOP_CHECK_MSG(freq.valid(), "clock domain needs a nonzero frequency");
}

void ClockDomain::Attach(ClockedModule& module) {
  modules_.push_back(&module);
  Kick();
}

void ClockDomain::Kick() { KickAt(sim_.now()); }

void ClockDomain::KickAt(Picoseconds t) {
  VCOP_CHECK_MSG(t >= sim_.now(), "KickAt in the past");
  // Fast idempotent return for the dominant call pattern: a kick at the
  // current time while an event is already pending at or before it (a
  // same-timestamp event still in the queue). Edge times strictly
  // increase, so pending_time_ <= t implies pending_edge_ <= the grid
  // candidate this kick would compute — the slow path would return
  // without doing anything, and a now-kick records no demand.
  if (scheduled_ && !in_tick_ && t == sim_.now() && pending_time_ <= t) {
    return;
  }
  if (sim_.engine() == Engine::kReference && t > sim_.now()) {
    // Reference engine: a future wake goes through a trampoline event
    // that kicks at its deadline, exactly like the seed kernel did.
    sim_.queue().ScheduleAt(t, EventQueue::kDefaultPriority,
                            [this] { Kick(); });
    return;
  }
  const u64 candidate = FirstEdgeAtOrAfter(t);
  // A future-time kick is a promise the modules' hints cannot see (the
  // caller knows something becomes interesting at `t`); record it so
  // batching never skips the edge and dormancy re-arms for it. A kick
  // from inside our own tick loop is recorded unconditionally — the
  // loop replays demands_ before scheduling or sleeping.
  if (t > sim_.now() || in_tick_) demands_.push_back(candidate);
  if (in_tick_) {
    // Called from inside this domain's own tick loop (a module issued
    // an access whose response wakes its own clock). The running loop
    // honours demands_ before scheduling or sleeping; rescheduling here
    // would clobber its state.
    return;
  }
  if (scheduled_) {
    // Idempotent while the pending edge is already early enough; a
    // batched-ahead event is pulled back (the superseded event becomes
    // a stale-token no-op). The skipped-edge base next_edge_ keeps its
    // value: edges between it and the new pending edge were skipped
    // while running and still get credited at dispatch.
    if (pending_edge_ <= candidate) return;
    ScheduleTick(candidate);
    return;
  }
  if (t > sim_.now()) {
    // Future promise to a dormant domain. Arm the demanded edge without
    // advancing the credit base: the edges until then are dormant (never
    // ticked, never credited), and leaving next_edge_ at the dormancy
    // floor lets an earlier kick arriving before the promise fires pull
    // the resume point back — the reference engine's trampoline would
    // have ticked that earlier edge too. (ApplyHints is moot here: the
    // demand recorded above already clamps any batching to `candidate`.)
    pending_is_resume_ = true;
    ScheduleTick(candidate);
    return;
  }
  // Resuming from dormancy now: edges slept through never happened (the
  // domain was gated), so the credit base advances to the resume edge.
  next_edge_ = candidate;
  const Picoseconds candidate_time = freq_.EdgeTime(candidate);
  const u64 target = ApplyHints(candidate, candidate_time);
  ScheduleTick(target,
               target == candidate ? candidate_time : freq_.EdgeTime(target));
}

Picoseconds ClockDomain::NextEdgeTimeAfterNow() const {
  // Mid-tick the current edge index is in hand (the inline-coalescing
  // loop keeps pending_edge_/pending_time_ at the edge being ticked),
  // so the next edge is one multiply away instead of a full CyclesAt.
  if (in_tick_ && pending_time_ == sim_.now()) {
    return freq_.EdgeTime(pending_edge_ + 1);
  }
  return freq_.EdgeTime(freq_.CyclesAt(sim_.now()) + 1);
}

u64 ClockDomain::FirstEdgeAtOrAfter(Picoseconds t) const {
  // Resume on the global grid: the first edge at or after `t`. (An edge
  // exactly at `t` is allowed if it has not elapsed yet — that is the
  // `next_edge_` lower bound.)
  if (t != grid_memo_t_) {
    const u64 at = freq_.CyclesAt(t);
    grid_memo_edge_ = freq_.EdgeTime(at) == t ? at : at + 1;
    grid_memo_t_ = t;
  }
  return std::max(grid_memo_edge_, next_edge_);
}

u64 ClockDomain::ApplyHints(u64 candidate, Picoseconds candidate_time) const {
  if (sim_.engine() == Engine::kReference) return candidate;
  u64 hint = ClockedModule::kNeverInteresting;
  for (ClockedModule* m : modules_) {
    hint = std::min(hint, m->NextInterestingEdge(candidate_time));
  }
  // All-kNeverInteresting (or a buggy 0) still ticks the candidate: a
  // kick is an explicit demand for an edge, and an extra tick is always
  // harmless — modules re-hint from it.
  if (hint == 0 || hint == ClockedModule::kNeverInteresting) hint = 1;
  u64 target = candidate + (hint - 1);
  // Never batch past a promised wake: a demanded edge must tick exactly.
  for (const u64 d : demands_) {
    if (d >= candidate && d < target) target = d;
  }
  return target;
}

void ClockDomain::EraseMetDemands(u64 ticked_edge) {
  if (demands_.empty()) return;
  demands_.erase(
      std::remove_if(demands_.begin(), demands_.end(),
                     [ticked_edge](u64 d) { return d <= ticked_edge; }),
      demands_.end());
}

void ClockDomain::ScheduleTick(u64 edge) {
  ScheduleTick(edge, freq_.EdgeTime(edge));
}

void ClockDomain::ScheduleTick(u64 edge, Picoseconds edge_time) {
  pending_edge_ = edge;
  pending_time_ = edge_time;
  ++token_;
  scheduled_ = true;
  const u64 token = token_;
  sim_.queue().ScheduleAt(edge_time, priority_,
                          [this, token] { TickEvent(token); });
}

void ClockDomain::TickEvent(u64 token) {
  if (token != token_) return;  // superseded by a pull-earlier reschedule
  scheduled_ = false;
  in_tick_ = true;
  if (pending_is_resume_) {
    // Waking from dormancy at a promised (or pulled-back) edge: the
    // edges slept through never happened, so none are credited.
    next_edge_ = pending_edge_;
    pending_is_resume_ = false;
  }
  u32 inline_left = kMaxInlineTicks;
  while (true) {
    // Credit edges batched over since the last tick, then tick the
    // interesting edge itself at its exact timestamp.
    if (pending_edge_ > next_edge_) {
      const u64 skipped = pending_edge_ - next_edge_;
      const Picoseconds first_skipped = freq_.EdgeTime(next_edge_);
      for (ClockedModule* m : modules_) {
        m->OnEdgesSkipped(skipped, first_skipped);
      }
      edges_ticked_ += skipped;
    }
    next_edge_ = pending_edge_ + 1;
    ++edges_ticked_;
    EraseMetDemands(pending_edge_);
    bool any_active = false;
    for (ClockedModule* m : modules_) {
      m->OnRisingEdge();
      any_active = any_active || m->active();
    }
    if (!any_active) {
      if (!demands_.empty()) {
        // A promised wake is still outstanding: re-arm for the earliest
        // demanded edge instead of sleeping, with dormant (resume)
        // semantics — the edges slept through until then never happen.
        const u64 d = *std::min_element(demands_.begin(), demands_.end());
        const Picoseconds d_time = freq_.EdgeTime(d);
        if (inline_left > 0 && sim_.InlineTickAllowed(d_time, priority_)) {
          // Fast-forward: resume from dormancy inside this same
          // dispatched event. Identical to scheduling the wake and
          // dispatching it next — which InlineTickAllowed guarantees
          // it would be — minus the event-queue round trip. The edges
          // slept through still never happen (no tick, no credit).
          --inline_left;
          next_edge_ = d;
          pending_edge_ = d;
          pending_time_ = d_time;
          sim_.queue().AdvanceNow(d_time);
          continue;
        }
        in_tick_ = false;
        pending_is_resume_ = true;
        ScheduleTick(d, d_time);
        return;
      }
      in_tick_ = false;
      return;  // dormant until the next Kick
    }

    const Picoseconds next_time = freq_.EdgeTime(next_edge_);
    const u64 target = ApplyHints(next_edge_, next_time);
    const Picoseconds target_time =
        target == next_edge_ ? next_time : freq_.EdgeTime(target);
    if (inline_left > 0 && sim_.InlineTickAllowed(target_time, priority_)) {
      // Coalesce: run the next interesting edge in this same dispatched
      // event. Global ordering is preserved because the simulator only
      // allows it while no other pending event would run first.
      --inline_left;
      pending_edge_ = target;
      pending_time_ = target_time;
      sim_.queue().AdvanceNow(target_time);
      continue;
    }
    in_tick_ = false;
    ScheduleTick(target, target_time);
    return;
  }
}

}  // namespace vcop::sim
