// Unit tests for the IMU: Figure-7 access timing (data on the 4th
// rising edge), fault raising/stalling/resolution, dirty-bit setting,
// parameter-page release, cross-clock operation and pipelined mode.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "hw/coprocessor.h"
#include "hw/imu.h"
#include "hw/imu_regs.h"
#include "hw/interrupt.h"
#include "mem/dp_ram.h"
#include "sim/simulator.h"

namespace vcop::hw {
namespace {

/// A coprocessor that executes a fixed script of element accesses as
/// fast as the interface allows, recording the completion time of each.
class ScriptedCoprocessor final : public Coprocessor {
 public:
  struct Op {
    bool write = false;
    ObjectId object = 0;
    u32 index = 0;
    u32 wdata = 0;
  };

  ScriptedCoprocessor(sim::Simulator& sim, std::vector<Op> script)
      : sim_(sim), script_(std::move(script)) {}

  std::string_view name() const override { return "scripted"; }

  const std::vector<u32>& read_data() const { return read_data_; }
  const std::vector<Picoseconds>& completion_times() const {
    return completion_times_;
  }
  usize completed() const { return completion_times_.size(); }

 protected:
  void OnStart() override { pc_ = 0; }

  void Step() override {
    if (pc_ >= script_.size()) {
      Finish();
      return;
    }
    const Op& op = script_[pc_];
    bool done = false;
    if (op.write) {
      done = TryWrite(op.object, op.index, op.wdata);
    } else {
      u32 value = 0;
      done = TryRead(op.object, op.index, value);
      if (done) read_data_.push_back(value);
    }
    if (done) {
      completion_times_.push_back(sim_.now());
      ++pc_;
    }
  }

 private:
  sim::Simulator& sim_;
  std::vector<Op> script_;
  usize pc_ = 0;
  std::vector<u32> read_data_;
  std::vector<Picoseconds> completion_times_;
};

/// Shared harness: one IMU + one scripted core on configurable clocks.
class ImuHarness {
 public:
  ImuHarness(ImuConfig config, Frequency imu_clock, Frequency cp_clock,
             std::vector<ScriptedCoprocessor::Op> script)
      : dp_ram_(16384),
        tlb_(8),
        imu_(config, mem::PageGeometry(2048, 8), dp_ram_, irq_, sim_, tlb_),
        cp_(sim_, std::move(script)),
        imu_domain_(sim_.AddClockDomain("imu", imu_clock)),
        cp_domain_(sim_.AddClockDomain("cp", cp_clock)) {
    irq_.set_handler([this](InterruptCause cause) {
      interrupts_.push_back({sim_.now(), cause});
    });
    imu_.BindClocks(imu_domain_, cp_domain_);
    imu_domain_.Attach(imu_);
    cp_domain_.Attach(cp_);
    cp_.BindPort(imu_);
  }

  /// Starts the core with no parameters at simulation time zero.
  void Start() {
    imu_.AssertStart();
    cp_.Start(0);
    cp_domain_.Kick();
  }

  bool RunToFinish(u64 max_events = 1'000'000) {
    return sim_.RunUntil([this] { return cp_.finished(); }, max_events);
  }

  struct Interrupt {
    Picoseconds time;
    InterruptCause cause;
  };

  sim::Simulator sim_;
  hw::InterruptLine irq_;
  mem::DualPortRam dp_ram_;
  Tlb tlb_;
  Imu imu_;
  ScriptedCoprocessor cp_;
  sim::ClockDomain& imu_domain_;
  sim::ClockDomain& cp_domain_;
  std::vector<Interrupt> interrupts_;
};

ImuConfig DefaultConfig() {
  ImuConfig config;
  config.access_latency_cycles = 4;
  return config;
}

constexpr Frequency k40MHz = Frequency::MHz(40);
constexpr Picoseconds k40MHzPeriod = 25'000;

TEST(ImuTest, ReadDataOnFourthRisingEdge) {
  // Figure 7: cp_access asserted on edge 1, data ready on edge 4.
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz,
               {{false, /*object=*/0, /*index=*/5, 0}});
  h.imu_.SetObjectWidth(0, 4);
  h.imu_.tlb().Install(0, 0, 0, /*frame=*/2);
  h.dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor, 2 * 2048 + 20, 4,
                      0xCAFEF00D);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 1u);
  EXPECT_EQ(h.cp_.read_data()[0], 0xCAFEF00Du);

  // Start at t=0 (edge 0): the *core* first steps the script on edge 1
  // (edge 0 ran the empty parameter phase), issuing on edge 1 at 25 ns;
  // data must be consumed on edge 4 at 100 ns — 4 rising edges
  // inclusive, as in Figure 7.
  EXPECT_EQ(h.cp_.completion_times()[0], 4 * k40MHzPeriod);
}

TEST(ImuTest, BackToBackReadsTakeFourCyclesEach) {
  std::vector<ScriptedCoprocessor::Op> script;
  for (u32 i = 0; i < 4; ++i) script.push_back({false, 0, i, 0});
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, script);
  h.imu_.SetObjectWidth(0, 4);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 4u);
  for (usize i = 1; i < 4; ++i) {
    EXPECT_EQ(h.cp_.completion_times()[i] - h.cp_.completion_times()[i - 1],
              4 * k40MHzPeriod)
        << "access " << i;
  }
}

TEST(ImuTest, WriteCommitsAndSetsDirty) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz,
               {{true, 0, /*index=*/3, 0xAB}});
  h.imu_.SetObjectWidth(0, 1);
  h.imu_.tlb().Install(5, 0, 0, /*frame=*/1);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  EXPECT_EQ(h.dp_ram_.ReadWord(mem::DualPortRam::Port::kProcessor,
                               2048 + 3, 1),
            0xABu);
  EXPECT_TRUE(h.imu_.tlb().entry(5).dirty);
  EXPECT_EQ(h.imu_.stats().writes, 1u);
}

TEST(ImuTest, MissLatchesArRaisesInterruptAndStalls) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz,
               {{false, /*object=*/2, /*index=*/0x123, 0}});
  h.imu_.SetObjectWidth(2, 4);  // programmed but unmapped -> TLB miss
  h.Start();
  ASSERT_FALSE(h.RunToFinish(/*max_events=*/50'000));

  ASSERT_EQ(h.interrupts_.size(), 1u);
  EXPECT_EQ(h.interrupts_[0].cause, InterruptCause::kPageFault);
  const u32 ar = h.imu_.ReadRegister(ImuRegister::kAR);
  EXPECT_EQ(ArObject(ar), 2u);
  EXPECT_EQ(ArIndex(ar), 0x123u);
  EXPECT_TRUE(h.imu_.ReadRegister(ImuRegister::kSR) & kSrFaultPending);
  EXPECT_EQ(h.cp_.completed(), 0u);  // stalled, not completed
  EXPECT_EQ(h.imu_.stats().faults, 1u);
}

TEST(ImuTest, ResolveFaultRestartsTranslationAndCompletes) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz,
               {{false, 0, /*index=*/600, 0}});  // offset 2400: page 1
  h.imu_.SetObjectWidth(0, 4);
  h.Start();
  ASSERT_FALSE(h.RunToFinish(50'000));
  ASSERT_EQ(h.interrupts_.size(), 1u);
  const Picoseconds fault_time = h.interrupts_[0].time;

  // OS services the fault 10 us later: map (obj 0, vpage 1) -> frame 6.
  h.dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor,
                      6 * 2048 + (600 * 4 - 2048), 4, 77);
  h.sim_.ScheduleAt(fault_time + 10'000'000, [&h] {
    h.imu_.tlb().Install(0, 0, 1, 6);
    h.imu_.ResolveFault();
  });
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 1u);
  EXPECT_EQ(h.cp_.read_data()[0], 77u);
  EXPECT_FALSE(h.imu_.ReadRegister(ImuRegister::kSR) & kSrFaultPending);
  // Stall time accounted: ~10 us.
  EXPECT_GE(h.imu_.stats().fault_stall_time, 10'000'000u);
  EXPECT_LT(h.imu_.stats().fault_stall_time, 11'000'000u);
}

TEST(ImuTest, AccessToUnprogrammedObjectFaults) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, {{false, 9, 0, 0}});
  h.Start();
  ASSERT_FALSE(h.RunToFinish(50'000));
  ASSERT_EQ(h.interrupts_.size(), 1u);
  EXPECT_EQ(ArObject(h.imu_.ReadRegister(ImuRegister::kAR)), 9u);
}

TEST(ImuTest, EndOfOperationInterrupt) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, {});
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.interrupts_.size(), 1u);
  EXPECT_EQ(h.interrupts_[0].cause, InterruptCause::kEndOfOperation);
  const u32 sr = h.imu_.ReadRegister(ImuRegister::kSR);
  EXPECT_TRUE(sr & kSrEndPending);
  EXPECT_FALSE(sr & kSrBusy);
  h.imu_.AckEnd();
  EXPECT_FALSE(h.imu_.ReadRegister(ImuRegister::kSR) & kSrEndPending);
}

TEST(ImuTest, ParamPageReleaseInvalidatesEntryAndFiresHook) {
  // A coprocessor started with parameters reads them from the param
  // page, then releases it (§3.2).
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, {});
  h.imu_.SetObjectWidth(kParamObject, 4);
  h.imu_.tlb().Install(0, kParamObject, 0, /*frame=*/0);
  h.dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor, 0, 4, 42);
  h.dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor, 4, 4, 43);
  bool released = false;
  h.imu_.set_param_release_hook([&released] { released = true; });

  h.imu_.AssertStart();
  h.cp_.Start(2);
  h.cp_domain_.Kick();
  ASSERT_TRUE(h.RunToFinish());
  EXPECT_TRUE(released);
  EXPECT_FALSE(h.imu_.tlb().entry(0).valid);
  EXPECT_TRUE(h.imu_.ReadRegister(ImuRegister::kSR) & kSrParamReleased);
}

TEST(ImuTest, CrossClockAccessCompletesAtNextCoreEdge) {
  // IDEA arrangement: IMU @24 MHz, core @6 MHz. The 4-cycle translation
  // fits inside one core period, so each access costs 2 core cycles
  // (issue edge + consume edge) with the FSM's registered issue.
  std::vector<ScriptedCoprocessor::Op> script;
  for (u32 i = 0; i < 3; ++i) script.push_back({false, 0, i, 0});
  ImuHarness h(DefaultConfig(), Frequency::MHz(24), Frequency::MHz(6),
               script);
  h.imu_.SetObjectWidth(0, 4);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 3u);
  // Compare core-clock edge indices: 6 MHz periods are not an integer
  // picosecond count, so raw time deltas wobble by ±1 ps on the grid.
  const Frequency core = Frequency::MHz(6);
  for (usize i = 1; i < 3; ++i) {
    EXPECT_EQ(core.CyclesAt(h.cp_.completion_times()[i]) -
                  core.CyclesAt(h.cp_.completion_times()[i - 1]),
              2u);
  }
}

TEST(ImuTest, PipelinedModeSustainsOneAccessPerCycle) {
  ImuConfig config = DefaultConfig();
  config.pipelined = true;
  std::vector<ScriptedCoprocessor::Op> script;
  for (u32 i = 0; i < 6; ++i) script.push_back({false, 0, i, 0});
  ImuHarness h(config, k40MHz, k40MHz, script);
  h.imu_.SetObjectWidth(0, 4);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 6u);
  // Steady state: one completion per core cycle.
  for (usize i = 2; i < 6; ++i) {
    EXPECT_EQ(h.cp_.completion_times()[i] - h.cp_.completion_times()[i - 1],
              k40MHzPeriod)
        << "access " << i;
  }
}

TEST(ImuTest, PipelinedIsFasterThanMultiCycle) {
  auto run = [](bool pipelined) {
    ImuConfig config = DefaultConfig();
    config.pipelined = pipelined;
    std::vector<ScriptedCoprocessor::Op> script;
    for (u32 i = 0; i < 64; ++i) script.push_back({false, 0, i, 0});
    ImuHarness h(config, k40MHz, k40MHz, script);
    h.imu_.SetObjectWidth(0, 4);
    h.imu_.tlb().Install(0, 0, 0, 0);
    h.Start();
    EXPECT_TRUE(h.RunToFinish());
    return h.sim_.now();
  };
  const Picoseconds multi = run(false);
  const Picoseconds pipe = run(true);
  EXPECT_LT(pipe * 3, multi) << "pipelining should mask most translation";
}

TEST(ImuTest, PostedWriteAcknowledgedNextEdge) {
  // With the posted-write buffer, a write completes (from the core's
  // view) on the edge after issue instead of the 4th.
  ImuConfig config = DefaultConfig();
  config.posted_writes = true;
  ImuHarness h(config, k40MHz, k40MHz,
               {{true, 0, 1, 0xAA}, {true, 0, 2, 0xBB}});
  h.imu_.SetObjectWidth(0, 1);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.cp_.completed(), 2u);
  // Back-to-back posted writes: 2 core cycles apart (ack + next issue),
  // not 4.
  EXPECT_EQ(h.cp_.completion_times()[1] - h.cp_.completion_times()[0],
            2 * k40MHzPeriod);
  // Both writes actually landed in the DP-RAM.
  EXPECT_EQ(h.dp_ram_.ReadWord(mem::DualPortRam::Port::kProcessor, 1, 1),
            0xAAu);
  EXPECT_EQ(h.dp_ram_.ReadWord(mem::DualPortRam::Port::kProcessor, 2, 1),
            0xBBu);
}

TEST(ImuTest, PostedWriteFaultStillPrecise) {
  // A posted write that misses must still fault, stall further
  // accesses, and retire correctly after the OS resolves it.
  ImuConfig config = DefaultConfig();
  config.posted_writes = true;
  ImuHarness h(config, k40MHz, k40MHz,
               {{true, 0, /*index (page 1)*/ 3000, 0x77},
                {false, 0, 0, 0}});
  h.imu_.SetObjectWidth(0, 1);
  h.imu_.tlb().Install(0, 0, 0, 0);  // page 0 mapped, page 1 not
  h.Start();
  ASSERT_FALSE(h.RunToFinish(50'000));
  ASSERT_EQ(h.interrupts_.size(), 1u);
  EXPECT_EQ(h.interrupts_[0].cause, InterruptCause::kPageFault);
  // The core already moved on (the write was acknowledged) but its next
  // access is blocked on the busy interface.
  EXPECT_EQ(h.cp_.completed(), 1u);

  // (The core spun on the busy interface while RunToFinish drained its
  // event budget, so schedule relative to *now*, not the interrupt.)
  h.sim_.ScheduleAt(h.sim_.now() + 1'000'000, [&h] {
    h.imu_.tlb().Install(1, 0, 1, 5);
    h.imu_.ResolveFault();
  });
  ASSERT_TRUE(h.RunToFinish());
  EXPECT_EQ(h.cp_.completed(), 2u);
  EXPECT_EQ(h.dp_ram_.ReadWord(mem::DualPortRam::Port::kProcessor,
                               5 * 2048 + (3000 - 2048), 1),
            0x77u);
}

TEST(ImuTest, PostedWriteDefersEndOfOperation) {
  // CP_FIN immediately after a posted write: the end interrupt must
  // wait for the buffer to drain so the OS sweep sees the final data.
  ImuConfig config = DefaultConfig();
  config.posted_writes = true;
  ImuHarness h(config, k40MHz, k40MHz, {{true, 0, 0, 0x42}});
  h.imu_.SetObjectWidth(0, 1);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());
  ASSERT_EQ(h.interrupts_.size(), 1u);
  EXPECT_EQ(h.interrupts_[0].cause, InterruptCause::kEndOfOperation);
  EXPECT_EQ(h.dp_ram_.ReadWord(mem::DualPortRam::Port::kProcessor, 0, 1),
            0x42u);
  EXPECT_TRUE(h.imu_.tlb().entry(0).dirty)
      << "the posted write must set the dirty bit before the end sweep";
}

TEST(ImuTest, HardStopClearsState) {
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, {{false, 7, 0, 0}});
  h.imu_.SetObjectWidth(7, 4);
  h.Start();
  ASSERT_FALSE(h.RunToFinish(50'000));  // stalled on fault
  h.imu_.HardStop();
  EXPECT_EQ(h.imu_.ReadRegister(ImuRegister::kSR), 0u);
  EXPECT_FALSE(h.imu_.busy());
}

TEST(ImuTest, TracerCapturesFigure7Signals) {
  sim::Tracer tracer;
  ImuHarness h(DefaultConfig(), k40MHz, k40MHz, {{false, 0, 1, 0}});
  h.imu_.AttachTracer(&tracer);
  h.imu_.SetObjectWidth(0, 4);
  h.imu_.tlb().Install(0, 0, 0, 0);
  h.dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor, 4, 4, 0x55);
  h.Start();
  ASSERT_TRUE(h.RunToFinish());

  // cp_access rises at the issue edge (25 ns) and falls at consume.
  const std::string vcd = tracer.ToVcd();
  EXPECT_NE(vcd.find("cp_access"), std::string::npos);
  EXPECT_NE(vcd.find("cp_tlbhit"), std::string::npos);
  // tlbhit asserted exactly at the 4th edge (100 ns = #100000).
  EXPECT_NE(vcd.find("#100000"), std::string::npos);
}

TEST(ImuDeathTest, LatencyBelowTwoRejected) {
  sim::Simulator sim;
  mem::DualPortRam dp(16384);
  InterruptLine irq;
  Tlb tlb(8);
  ImuConfig config;
  config.access_latency_cycles = 1;
  EXPECT_DEATH(Imu(config, mem::PageGeometry(2048, 8), dp, irq, sim, tlb),
               "at least 2");
}

}  // namespace
}  // namespace vcop::hw
