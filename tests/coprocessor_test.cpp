// Unit tests for the portable Coprocessor base class (parameter phase,
// TryRead/TryWrite handshake discipline, CP_FIN) against a mock port,
// and for the FPGA fabric / bit-stream machinery.
#include <gtest/gtest.h>

#include <deque>

#include "cp/registry.h"
#include "hw/coprocessor.h"
#include "hw/cp_port.h"
#include "hw/fabric.h"

namespace vcop::hw {
namespace {

/// A mock port that answers every access after a fixed number of polls,
/// recording the traffic. Not clocked: the test drives OnRisingEdge.
class MockPort final : public CoprocessorPort {
 public:
  explicit MockPort(u32 polls_until_ready = 0)
      : polls_until_ready_(polls_until_ready) {}

  bool CanIssue() const override { return !outstanding_; }

  void Issue(const CpAccess& access) override {
    VCOP_CHECK(CanIssue());
    outstanding_ = true;
    polls_left_ = polls_until_ready_;
    current_ = access;
    issued.push_back(access);
  }

  bool ResponseReady() const override {
    return outstanding_ && polls_left_ == 0;
  }

  u32 ConsumeResponse() override {
    VCOP_CHECK(ResponseReady());
    outstanding_ = false;
    if (current_.write) return 0;
    const u32 v = read_values.empty() ? 0xDEAD : read_values.front();
    if (!read_values.empty()) read_values.pop_front();
    return v;
  }

  bool BackToBack() const override { return back_to_back; }
  void ReleaseParamPage() override { ++param_releases; }
  void SignalFinish() override { ++finishes; }

  /// Advances the "translation": call once per simulated edge.
  void TickTranslation() {
    if (outstanding_ && polls_left_ > 0) --polls_left_;
  }

  std::vector<CpAccess> issued;
  std::deque<u32> read_values;
  int param_releases = 0;
  int finishes = 0;
  bool back_to_back = false;

 private:
  u32 polls_until_ready_;
  u32 polls_left_ = 0;
  bool outstanding_ = false;
  CpAccess current_{};
};

/// Reads params then writes their sum to object 0 element 0.
class SumParamsCoprocessor final : public Coprocessor {
 public:
  std::string_view name() const override { return "sumparams"; }

 protected:
  void OnStart() override {
    sum_ = 0;
    for (usize i = 0; i < num_params(); ++i) sum_ += param(i);
  }

  void Step() override {
    if (TryWrite(0, 0, sum_)) Finish();
  }

 private:
  u32 sum_ = 0;
};

TEST(CoprocessorBaseTest, ParamPhaseReadsParamObjectThenReleases) {
  MockPort port;
  port.read_values = {10, 20, 30};
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(3);
  EXPECT_TRUE(cp.running());

  for (int edge = 0; edge < 20 && !cp.finished(); ++edge) {
    port.TickTranslation();
    cp.OnRisingEdge();
  }
  ASSERT_TRUE(cp.finished());
  EXPECT_EQ(port.param_releases, 1);
  EXPECT_EQ(port.finishes, 1);
  // 3 param reads from the reserved object, then the sum write.
  ASSERT_EQ(port.issued.size(), 4u);
  for (u32 i = 0; i < 3; ++i) {
    EXPECT_EQ(port.issued[i].object, kParamObject);
    EXPECT_EQ(port.issued[i].index, i);
    EXPECT_FALSE(port.issued[i].write);
  }
  EXPECT_TRUE(port.issued[3].write);
  EXPECT_EQ(port.issued[3].wdata, 60u);
}

TEST(CoprocessorBaseTest, ZeroParamsStillReleasesParamPage) {
  MockPort port;
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(0);
  for (int edge = 0; edge < 10 && !cp.finished(); ++edge) {
    port.TickTranslation();
    cp.OnRisingEdge();
  }
  ASSERT_TRUE(cp.finished());
  EXPECT_EQ(port.param_releases, 1);
  EXPECT_EQ(port.issued.size(), 1u);  // only the write
}

TEST(CoprocessorBaseTest, MultiCycleAccessOccupiesFsm) {
  MockPort port(/*polls_until_ready=*/3);
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(0);
  int edges = 0;
  while (!cp.finished() && edges < 50) {
    port.TickTranslation();
    cp.OnRisingEdge();
    ++edges;
  }
  ASSERT_TRUE(cp.finished());
  // Param release edge + issue + 3 wait edges + consume ~ 5-6 edges.
  EXPECT_GE(edges, 5);
}

TEST(CoprocessorBaseTest, CyclesRunCountsEdges) {
  MockPort port;
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(0);
  port.TickTranslation();
  cp.OnRisingEdge();
  port.TickTranslation();
  cp.OnRisingEdge();
  EXPECT_EQ(cp.cycles_run(), 2u);
  // A restart resets the counter.
  while (!cp.finished()) {
    port.TickTranslation();
    cp.OnRisingEdge();
  }
  cp.Start(0);
  EXPECT_EQ(cp.cycles_run(), 0u);
}

TEST(CoprocessorBaseTest, AbortStopsWithoutFinish) {
  MockPort port(/*polls_until_ready=*/100);
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(0);
  cp.OnRisingEdge();  // param phase done; write issued next edge
  cp.OnRisingEdge();
  cp.Abort();
  EXPECT_FALSE(cp.running());
  EXPECT_FALSE(cp.finished());
  EXPECT_EQ(port.finishes, 0);
}

TEST(CoprocessorBaseDeathTest, StartWithoutPortAborts) {
  SumParamsCoprocessor cp;
  EXPECT_DEATH(cp.Start(0), "no port bound");
}

TEST(CoprocessorBaseDeathTest, DoubleStartAborts) {
  MockPort port;
  SumParamsCoprocessor cp;
  cp.BindPort(port);
  cp.Start(0);
  EXPECT_DEATH(cp.Start(0), "already running");
}

// ----- FpgaFabric -----

TEST(FabricTest, PriceConfigurePricesTime) {
  const FpgaFabric fabric(/*capacity_les=*/5000, /*bytes_per_second=*/1 << 20);
  const auto t = fabric.PriceConfigure(cp::VecAddBitstream());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // 48 KB at 1 MB/s = 46.875 ms.
  EXPECT_NEAR(ToMilliseconds(t.value()), 46.875, 0.01);
}

TEST(FabricTest, ResourceFitChecked) {
  const FpgaFabric small(/*capacity_les=*/100, 1 << 20);
  const auto r = small.PriceConfigure(cp::IdeaBitstream());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("LEs"), std::string::npos);
}

TEST(FabricTest, IdeaNearlyFillsEpxa1) {
  // The paper: "Exploiting IDEA's parallelism in hardware was limited
  // by the limited PLD resources of the device used."
  const Bitstream idea = cp::IdeaBitstream();
  EXPECT_GT(idea.logic_elements, 4160u * 8 / 10);
  EXPECT_LE(idea.logic_elements, 4160u);
}

TEST(FabricTest, InvalidBitstreamRejected) {
  const FpgaFabric fabric(5000, 1 << 20);
  Bitstream bad = cp::VecAddBitstream();
  bad.create = nullptr;
  EXPECT_FALSE(fabric.PriceConfigure(bad).ok());
  Bitstream no_clock = cp::VecAddBitstream();
  no_clock.cp_clock = Frequency();
  EXPECT_FALSE(fabric.PriceConfigure(no_clock).ok());
}

}  // namespace
}  // namespace vcop::hw
