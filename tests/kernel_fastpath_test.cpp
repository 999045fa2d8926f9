// Simulation-kernel fast-path tests: the inline-callback event queue,
// edge batching (NextInterestingEdge / OnEdgesSkipped) and demand wakes
// (KickAt). The end-to-end engine equivalence on the Figure 8 / Figure 9
// workload points lives in fastforward_diff_test.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/inline_function.h"
#include "sim/simulator.h"

namespace vcop {
namespace {

using sim::ClockDomain;
using sim::ClockedModule;
using sim::EventQueue;
using sim::InlineFunction;
using sim::Simulator;

// ----- InlineFunction -----

struct CountingPayload {
  static int copies;
  static int moves;
  static int destroys;
  int tag;
  int* hits;

  CountingPayload(int tag, int* hits) : tag(tag), hits(hits) {}
  CountingPayload(const CountingPayload& o) noexcept
      : tag(o.tag), hits(o.hits) {
    ++copies;
  }
  CountingPayload(CountingPayload&& o) noexcept : tag(o.tag), hits(o.hits) {
    ++moves;
  }
  ~CountingPayload() { ++destroys; }
  void operator()() { *hits += tag; }

  static void ResetCounters() { copies = moves = destroys = 0; }
};
int CountingPayload::copies = 0;
int CountingPayload::moves = 0;
int CountingPayload::destroys = 0;

TEST(InlineFunctionTest, SmallCaptureRuns) {
  int hit = 0;
  InlineFunction f([&hit] { hit = 7; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hit, 7);
}

TEST(InlineFunctionTest, LargeCaptureSpillsToHeapAndRuns) {
  std::array<u8, 2 * InlineFunction::kInlineBytes> big{};
  for (usize i = 0; i < big.size(); ++i) big[i] = static_cast<u8>(i);
  static_assert(sizeof(big) > InlineFunction::kInlineBytes);
  int sum = 0;
  InlineFunction f([big, &sum] {
    for (const u8 b : big) sum += b;
  });
  f();
  int expect = 0;
  for (usize i = 0; i < big.size(); ++i) expect += static_cast<int>(i & 0xFF);
  EXPECT_EQ(sum, expect);
}

TEST(InlineFunctionTest, MoveTransfersThePayloadWithoutCopying) {
  CountingPayload::ResetCounters();
  int hits = 0;
  {
    InlineFunction a{CountingPayload(3, &hits)};
    InlineFunction b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    b();
  }
  EXPECT_EQ(CountingPayload::copies, 0);
  EXPECT_GE(CountingPayload::moves, 1);
  EXPECT_EQ(hits, 3);
  // Every constructed payload was destroyed exactly once.
  EXPECT_EQ(CountingPayload::destroys, 1 + CountingPayload::moves);
}

TEST(InlineFunctionTest, HoldsMoveOnlyCaptures) {
  // std::function could not store this lambda at all (it requires
  // copyability); the queue's action type must.
  auto value = std::make_unique<int>(41);
  int out = 0;
  InlineFunction f([v = std::move(value), &out] { out = *v + 1; });
  f();
  EXPECT_EQ(out, 42);
}

// ----- EventQueue -----

TEST(EventQueueTest, ActionsAreMovedNotCopied) {
  // Regression for the old priority_queue engine, which const_cast-
  // moved actions out of top() and copied on every heap adjustment.
  CountingPayload::ResetCounters();
  int hits = 0;
  {
    EventQueue q;
    for (int i = 0; i < 16; ++i) {
      q.ScheduleAt(static_cast<Picoseconds>(100 * (16 - i)),
                   CountingPayload(1 << (i % 8), &hits));
    }
    while (!q.empty()) q.DispatchOne();
  }
  EXPECT_EQ(CountingPayload::copies, 0);
  EXPECT_EQ(hits, 2 * ((1 << 8) - 1));
  EXPECT_EQ(CountingPayload::destroys, 16 + CountingPayload::moves);
}

TEST(EventQueueTest, SameTimePriorityThenFifo) {
  EventQueue q;
  std::string log;
  q.ScheduleAt(500, /*priority=*/7, [&log] { log += 'd'; });
  q.ScheduleAt(500, /*priority=*/2, [&log] { log += 'b'; });
  q.ScheduleAt(500, /*priority=*/2, [&log] { log += 'c'; });  // FIFO after b
  q.ScheduleAt(500, /*priority=*/0, [&log] { log += 'a'; });
  q.ScheduleAt(400, /*priority=*/9, [&log] { log += '0'; });  // earlier time
  EXPECT_EQ(q.NextTime(), 400u);
  EXPECT_EQ(q.NextPriority(), 9u);
  while (!q.empty()) q.DispatchOne();
  EXPECT_EQ(log, "0abcd");
}

TEST(EventQueueTest, SpilledAndInlineActionsInterleave) {
  EventQueue q;
  std::vector<int> order;
  std::array<u8, 100> big{};
  big[99] = 2;
  q.ScheduleAt(10, [&order] { order.push_back(1); });  // inline
  q.ScheduleAt(20, [&order, big] { order.push_back(big[99]); });  // spilled
  q.ScheduleAt(30, [&order] { order.push_back(3); });  // inline
  while (!q.empty()) q.DispatchOne();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, AdvanceNowMovesTimeWithoutDispatching) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(1000, [&ran] { ran = true; });
  q.AdvanceNow(999);
  EXPECT_EQ(q.now(), 999u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.dispatched(), 0u);
  q.DispatchOne();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 1000u);
}

// ----- Edge batching -----

/// Scripted module shaped like the coprocessor's compute-delay pattern:
/// its first edge starts a fixed delay of `delay` edges that carry no
/// work, the edge after the delay completes the work, and the module
/// then goes inactive. The delay burns tick-by-tick under the reference
/// engine and via skip credits under batching.
class ScriptedModule : public ClockedModule {
 public:
  ScriptedModule(Simulator& sim, u32 delay) : sim_(sim), delay_left_(delay) {}

  void OnRisingEdge() override {
    ticks.push_back(sim_.now());
    if (!started_) {
      started_ = true;
      return;
    }
    if (delay_left_ > 0) {
      --delay_left_;
      return;
    }
    done_ = true;
  }

  bool active() const override { return !done_; }

  u64 NextInterestingEdge(Picoseconds) const override {
    if (done_) return kNeverInteresting;
    if (started_ && delay_left_ > 0) {
      return static_cast<u64>(delay_left_) + 1;
    }
    return 1;
  }

  void OnEdgesSkipped(u64 count, Picoseconds first_edge_time) override {
    skips.push_back({count, first_edge_time});
    const u64 burned = count < delay_left_ ? count : delay_left_;
    delay_left_ -= static_cast<u32>(burned);
  }

  std::vector<Picoseconds> ticks;
  std::vector<std::pair<u64, Picoseconds>> skips;

 private:
  Simulator& sim_;
  u32 delay_left_;
  bool started_ = false;
  bool done_ = false;
};

constexpr Picoseconds kPeriod40MHz = 25'000;

TEST(EdgeBatchingTest, DelayHintSkipsToTheInterestingEdgeInOneEvent) {
  Simulator sim;
  ClockDomain& dom = sim.AddClockDomain("d", Frequency::MHz(40));
  ScriptedModule m(sim, /*delay=*/5);
  dom.Attach(m);
  sim.RunToIdle();

  // Edge 0 starts the delay, edges 1..5 burn silently, edge 6 finishes.
  ASSERT_EQ(m.ticks.size(), 2u);
  EXPECT_EQ(m.ticks[0], 0u);
  EXPECT_EQ(m.ticks[1], 6 * kPeriod40MHz);
  // The five burnt edges arrived as one credit, stamped with the first
  // skipped edge's timestamp.
  ASSERT_EQ(m.skips.size(), 1u);
  EXPECT_EQ(m.skips[0].first, 5u);
  EXPECT_EQ(m.skips[0].second, 1 * kPeriod40MHz);
  // All seven edges elapsed, in far fewer dispatched events (with tick
  // coalescing the whole run fits in one).
  EXPECT_EQ(dom.edges_ticked(), 7u);
  EXPECT_LE(sim.events_dispatched(), 3u);
}

TEST(EdgeBatchingTest, ReferenceTuningTicksEveryEdge) {
  Simulator sim;
  sim.set_engine(sim::Engine::kReference);
  ClockDomain& dom = sim.AddClockDomain("d", Frequency::MHz(40));
  ScriptedModule m(sim, /*delay=*/5);
  dom.Attach(m);
  sim.RunToIdle();
  // Every one of the 7 edges ticked in its own event; no skip credits.
  ASSERT_EQ(m.ticks.size(), 7u);
  for (usize i = 0; i < m.ticks.size(); ++i) {
    EXPECT_EQ(m.ticks[i], i * kPeriod40MHz);
  }
  EXPECT_TRUE(m.skips.empty());
  EXPECT_EQ(sim.events_dispatched(), 7u);
  EXPECT_EQ(dom.edges_ticked(), 7u);
}

TEST(EdgeBatchingTest, KickPullsABatchedAheadEventBack) {
  Simulator sim;
  ClockDomain& dom = sim.AddClockDomain("d", Frequency::MHz(40));
  ScriptedModule m(sim, /*delay=*/20);  // next tick batched to edge 21
  dom.Attach(m);

  // An external event at edge 3's timestamp demands an earlier look.
  sim.ScheduleAt(3 * kPeriod40MHz, [&dom] { dom.Kick(); });
  const bool fired = sim.RunUntil([&m] { return m.ticks.size() >= 2; });
  ASSERT_TRUE(fired);

  // The pulled-back tick lands exactly on edge 3, with exactly the two
  // intervening edges credited — batching cancelled early, never late.
  EXPECT_EQ(m.ticks[1], 3 * kPeriod40MHz);
  ASSERT_EQ(m.skips.size(), 1u);
  EXPECT_EQ(m.skips[0].first, 2u);  // edges 1 and 2
  EXPECT_EQ(m.skips[0].second, 1 * kPeriod40MHz);
}

/// Module that goes inactive immediately and records its tick times:
/// used to observe demand wakes (KickAt) on a dormant domain.
class SleeperModule : public ClockedModule {
 public:
  explicit SleeperModule(Simulator& sim) : sim_(sim) {}
  void OnRisingEdge() override { ticks.push_back(sim_.now()); }
  bool active() const override { return false; }
  u64 NextInterestingEdge(Picoseconds) const override {
    return kNeverInteresting;
  }
  std::vector<Picoseconds> ticks;

 private:
  Simulator& sim_;
};

TEST(EdgeBatchingTest, KickAtWakesADormantDomainOnTheGrid) {
  Simulator sim;
  ClockDomain& dom = sim.AddClockDomain("d", Frequency::MHz(40));
  SleeperModule m(sim);
  dom.Attach(m);
  sim.RunToIdle();  // ticks edge 0, goes dormant
  ASSERT_EQ(m.ticks.size(), 1u);

  // Wake strictly between edges 4 and 5: the tick lands on edge 5 (the
  // clock's phase is unchanged by the dormant stretch).
  sim.ScheduleAt(4 * kPeriod40MHz + 1,
                 [&dom, &sim] { dom.KickAt(sim.now()); });
  sim.RunToIdle();
  ASSERT_EQ(m.ticks.size(), 2u);
  EXPECT_EQ(m.ticks[1], 5 * kPeriod40MHz);

  // A future-time KickAt arms the wake without a trampoline event: the
  // demanded edge ticks in the only other dispatched event.
  const u64 events_before = sim.events_dispatched();
  sim.ScheduleAt(m.ticks[1] + 1,
                 [&dom] { dom.KickAt(9 * kPeriod40MHz); });
  sim.RunToIdle();
  ASSERT_EQ(m.ticks.size(), 3u);
  EXPECT_EQ(m.ticks[2], 9 * kPeriod40MHz);
  EXPECT_EQ(sim.events_dispatched() - events_before, 2u);
}

TEST(EdgeBatchingTest, FutureDemandSurvivesAnEarlierTickAndSleep) {
  // Regression: a promised KickAt wake must neither be lost when the
  // domain ticks an earlier edge and goes back to sleep, nor swallow an
  // earlier kick arriving while the promise is armed.
  Simulator sim;
  ClockDomain& dom = sim.AddClockDomain("d", Frequency::MHz(40));
  SleeperModule m(sim);
  dom.Attach(m);
  sim.RunToIdle();  // edge 0, then dormant

  // Demand a wake at edge 8; then an unrelated kick asks for edge 2.
  sim.ScheduleAt(1, [&dom] { dom.KickAt(8 * kPeriod40MHz); });
  sim.ScheduleAt(2 * kPeriod40MHz, [&dom] { dom.Kick(); });
  sim.RunToIdle();
  ASSERT_EQ(m.ticks.size(), 3u);
  EXPECT_EQ(m.ticks[1], 2 * kPeriod40MHz);  // the earlier kick ticked
  EXPECT_EQ(m.ticks[2], 8 * kPeriod40MHz);  // the promise was kept
}

TEST(EdgeBatchingTest, CoincidentEdgesKeepCreationOrderUnderBatching) {
  // 24 MHz domain created first, 6 MHz second (the IMU / IDEA-core
  // arrangement): wherever their edges coincide, the 24 MHz domain must
  // tick first — Figure 7's "data on the 4th rising edge" depends on it
  // — even when batching jumps straight between coincident edges.
  Simulator sim;
  ClockDomain& fast = sim.AddClockDomain("imu", Frequency::MHz(24));
  ClockDomain& slow = sim.AddClockDomain("cp", Frequency::MHz(6));

  struct HintedLogger : ClockedModule {
    Simulator* sim = nullptr;
    std::vector<std::pair<Picoseconds, char>>* log = nullptr;
    char id = '?';
    Frequency freq;
    u64 stride = 1;  // tick only edges whose index is a multiple of this
    u32 left = 0;
    void OnRisingEdge() override {
      log->push_back({sim->now(), id});
      if (left > 0) --left;
    }
    bool active() const override { return left > 0; }
    u64 NextInterestingEdge(Picoseconds next_edge_time) const override {
      const u64 m = freq.CyclesAt(next_edge_time) % stride;
      return m == 0 ? 1 : stride - m + 1;
    }
    void OnEdgesSkipped(u64 count, Picoseconds) override {
      left -= static_cast<u32>(count < left ? count : left);
    }
  };

  std::vector<std::pair<Picoseconds, char>> log;
  HintedLogger f;  // ticks every 4th edge: exactly the coincident ones
  f.sim = &sim;
  f.log = &log;
  f.id = 'f';
  f.freq = fast.frequency();
  f.stride = 4;
  f.left = 16;
  HintedLogger s;
  s.sim = &sim;
  s.log = &log;
  s.id = 's';
  s.freq = slow.frequency();
  s.left = 4;
  fast.Attach(f);
  slow.Attach(s);
  sim.RunToIdle();

  // At every shared timestamp the fast (earlier-created) domain logged
  // first; the 24/6 MHz grids coincide on every slow edge despite the
  // non-integral periods (drift-free EdgeTime).
  usize shared = 0;
  for (usize i = 0; i + 1 < log.size(); ++i) {
    if (log[i].first == log[i + 1].first) {
      ++shared;
      EXPECT_EQ(log[i].second, 'f') << "at t=" << log[i].first;
      EXPECT_EQ(log[i + 1].second, 's') << "at t=" << log[i].first;
    }
  }
  EXPECT_GE(shared, 4u);
}

}  // namespace
}  // namespace vcop
