// Unit tests for the simulation kernel: event queue ordering, clock
// domains (drift-free grids, dormancy + Kick semantics, multi-domain
// coincident-edge ordering) and the waveform tracer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace vcop::sim {
namespace {

// ----- EventQueue -----

TEST(EventQueueTest, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  while (!q.empty()) q.DispatchOne();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
  EXPECT_EQ(q.dispatched(), 3u);
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.DispatchOne();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAt(2, [&] { ++fired; });
  });
  while (!q.empty()) q.DispatchOne();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, SchedulingAtNowFromHandlerRuns) {
  EventQueue q;
  bool ran = false;
  q.ScheduleAt(7, [&] { q.ScheduleAt(7, [&] { ran = true; }); });
  while (!q.empty()) q.DispatchOne();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 7u);
}

TEST(EventQueueDeathTest, PastSchedulingAborts) {
  EventQueue q;
  q.ScheduleAt(10, [] {});
  q.DispatchOne();
  EXPECT_DEATH(q.ScheduleAt(5, [] {}), "past");
}

// ----- ClockDomain -----

/// Counts its own ticks; goes inactive after a budget is exhausted.
class CountingModule : public ClockedModule {
 public:
  explicit CountingModule(u64 budget) : budget_(budget) {}

  void OnRisingEdge() override {
    ++ticks_;
    times_.push_back(current_time_ ? *current_time_ : 0);
  }
  bool active() const override { return ticks_ < budget_; }

  void set_time_source(const Picoseconds* t) { current_time_ = t; }
  u64 ticks() const { return ticks_; }
  const std::vector<Picoseconds>& times() const { return times_; }
  void extend(u64 budget) { budget_ = budget; }

 private:
  u64 budget_;
  u64 ticks_ = 0;
  const Picoseconds* current_time_ = nullptr;
  std::vector<Picoseconds> times_;
};

TEST(ClockDomainTest, TicksUntilInactiveThenSleeps) {
  Simulator sim;
  ClockDomain& clk = sim.AddClockDomain("test", Frequency::MHz(100));
  CountingModule mod(5);
  clk.Attach(mod);
  EXPECT_TRUE(sim.RunToIdle());
  EXPECT_EQ(mod.ticks(), 5u);
  // 5 edges at 10 ns period starting at t=0.
  EXPECT_EQ(sim.now(), 40'000u);
}

TEST(ClockDomainTest, KickResumesOnTheGlobalGrid) {
  Simulator sim;
  ClockDomain& clk = sim.AddClockDomain("test", Frequency::MHz(100));
  CountingModule mod(3);
  clk.Attach(mod);
  ASSERT_TRUE(sim.RunToIdle());
  const Picoseconds slept_at = sim.now();

  // Wake the clock later, off-grid: the next edge must land on the
  // grid (multiple of 10 ns), not at the kick time.
  sim.ScheduleAt(slept_at + 12'345, [&] {
    mod.extend(4);
    clk.Kick();
  });
  ASSERT_TRUE(sim.RunToIdle());
  EXPECT_EQ(mod.ticks(), 4u);
  EXPECT_EQ(sim.now() % 10'000, 0u) << "edge off the 10ns grid";
  EXPECT_GT(sim.now(), slept_at + 12'345);
}

TEST(ClockDomainTest, KickWhileScheduledIsIdempotent) {
  Simulator sim;
  ClockDomain& clk = sim.AddClockDomain("test", Frequency::MHz(1));
  CountingModule mod(2);
  clk.Attach(mod);
  clk.Kick();
  clk.Kick();
  ASSERT_TRUE(sim.RunToIdle());
  EXPECT_EQ(mod.ticks(), 2u);  // not double-ticked
}

TEST(ClockDomainTest, CoincidentEdgesOrderedByCreation) {
  // 24 MHz and 6 MHz share every 4th edge; the domain created first
  // (the IMU's, by convention) must tick first at shared timestamps.
  Simulator sim;
  ClockDomain& fast = sim.AddClockDomain("imu", Frequency::MHz(24));
  ClockDomain& slow = sim.AddClockDomain("cp", Frequency::MHz(6));

  std::vector<std::string> log;
  class Logger : public ClockedModule {
   public:
    Logger(std::vector<std::string>& log, std::string tag, u64 budget)
        : log_(log), tag_(std::move(tag)), budget_(budget) {}
    void OnRisingEdge() override {
      ++ticks_;
      log_.push_back(tag_);
    }
    bool active() const override { return ticks_ < budget_; }

   private:
    std::vector<std::string>& log_;
    std::string tag_;
    u64 budget_;
    u64 ticks_ = 0;
  };
  Logger fast_mod(log, "imu", 8);
  Logger slow_mod(log, "cp", 2);
  fast.Attach(fast_mod);
  slow.Attach(slow_mod);
  ASSERT_TRUE(sim.RunToIdle());
  // t=0 is shared: imu then cp. Then 3 imu-only edges, then shared again.
  ASSERT_GE(log.size(), 6u);
  EXPECT_EQ(log[0], "imu");
  EXPECT_EQ(log[1], "cp");
  EXPECT_EQ(log[2], "imu");
  EXPECT_EQ(log[3], "imu");
  EXPECT_EQ(log[4], "imu");
  EXPECT_EQ(log[5], "imu");
  EXPECT_EQ(log[6], "cp");
}

TEST(ClockDomainTest, EdgesOfLateDomainsPrecedeCoincidentPlainEvents) {
  // A long-running vcopd creates two domains per job and keeps them, so
  // domain indices pass any small constant. A plain event must still run
  // after every domain's edge at its timestamp, under both engines (the
  // fast one ticks an edge inline when nothing queued sorts before it).
  for (const Engine engine : {Engine::kFast, Engine::kReference}) {
    Simulator sim;
    sim.set_engine(engine);
    for (u32 i = 0; i < 1001; ++i) {
      sim.AddClockDomain("idle" + std::to_string(i), Frequency::MHz(1));
    }
    ClockDomain& late = sim.AddClockDomain("late", Frequency::MHz(1));
    ASSERT_GT(late.priority(), 1000u);
    CountingModule mod(2);  // edges at 0 and 1 us
    std::vector<Picoseconds> plain;
    for (const Picoseconds t : {Picoseconds{0}, Picoseconds{1'000'000}}) {
      sim.ScheduleAt(t, [&, t] {
        plain.push_back(t);
        EXPECT_EQ(mod.ticks(), t == 0 ? 1u : 2u)
            << "plain event at " << t << " ran before the coincident edge";
      });
    }
    late.Attach(mod);
    ASSERT_TRUE(sim.RunToIdle());
    EXPECT_EQ(mod.ticks(), 2u);
    EXPECT_EQ(plain.size(), 2u);
  }
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(static_cast<Picoseconds>(i * 100), [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntil([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_EQ(sim.now(), 400u);
  EXPECT_TRUE(sim.RunToIdle());
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilTimeStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(static_cast<Picoseconds>(i * 100), [&] { ++count; });
  }
  sim.RunUntilTime(350);
  EXPECT_EQ(count, 3);
  sim.RunUntilTime(400);  // inclusive
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, RunUntilGivesUpAfterMaxEvents) {
  Simulator sim;
  // Self-perpetuating event chain that never satisfies the predicate.
  std::function<void()> reschedule = [&] {
    sim.ScheduleAfter(10, reschedule);
  };
  sim.ScheduleAfter(10, reschedule);
  EXPECT_FALSE(sim.RunUntil([] { return false; }, /*max_events=*/1000));
}

// ----- Tracer -----

TEST(TracerTest, RecordsChangesAndAnswersValueAt) {
  Tracer t;
  const SignalId s = t.AddSignal("sig", 8);
  EXPECT_FALSE(t.ValueAt(s, 0).has_value());
  t.Record(s, 100, 0xAB);
  t.Record(s, 200, 0xCD);
  EXPECT_FALSE(t.ValueAt(s, 99).has_value());
  EXPECT_EQ(t.ValueAt(s, 100), 0xABu);
  EXPECT_EQ(t.ValueAt(s, 150), 0xABu);
  EXPECT_EQ(t.ValueAt(s, 200), 0xCDu);
  EXPECT_EQ(t.ValueAt(s, 10'000), 0xCDu);
}

TEST(TracerTest, DuplicateValueIsNotStored) {
  Tracer t;
  const SignalId s = t.AddSignal("sig", 1);
  t.Record(s, 10, 1);
  t.Record(s, 20, 1);
  t.Record(s, 30, 0);
  EXPECT_EQ(t.num_changes(), 2u);
}

TEST(TracerTest, SameTimestampOverwrites) {
  Tracer t;
  const SignalId s = t.AddSignal("sig", 4);
  t.Record(s, 10, 1);
  t.Record(s, 10, 3);
  EXPECT_EQ(t.ValueAt(s, 10), 3u);
}

TEST(TracerTest, ValuesMaskedToWidth) {
  Tracer t;
  const SignalId s = t.AddSignal("sig", 4);
  t.Record(s, 10, 0xFF);
  EXPECT_EQ(t.ValueAt(s, 10), 0xFu);
}

TEST(TracerTest, VcdContainsHeaderAndChanges) {
  Tracer t;
  const SignalId clk = t.AddSignal("clk", 1);
  const SignalId bus = t.AddSignal("bus", 8);
  t.Record(clk, 0, 0);
  t.Record(clk, 100, 1);
  t.Record(bus, 100, 0x5A);
  const std::string vcd = t.ToVcd();
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8 \" bus $end"), std::string::npos);
  EXPECT_NE(vcd.find("#100"), std::string::npos);
  EXPECT_NE(vcd.find("b01011010 \""), std::string::npos);
}

TEST(TracerTest, AsciiRendersLanes) {
  Tracer t;
  const SignalId s = t.AddSignal("cp_tlbhit", 1);
  t.Record(s, 0, 0);
  t.Record(s, 300, 1);
  const std::string art = t.ToAscii(0, 500, 100);
  EXPECT_NE(art.find("cp_tlbhit"), std::string::npos);
  EXPECT_NE(art.find('_'), std::string::npos);  // low phase
  EXPECT_NE(art.find('/'), std::string::npos);  // rising edge
  EXPECT_NE(art.find('^'), std::string::npos);  // high phase
}

// ----- stats -----

TEST(SummaryTest, TracksMinMaxMean) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  s.Add(2.0);
  s.Add(6.0);
  s.Add(4.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

}  // namespace
}  // namespace vcop::sim
