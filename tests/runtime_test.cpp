// Unit tests for the runtime layer: platform presets, host buffers,
// the manual runner / direct port, and report formatting.
#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/manual_runtime.h"
#include "runtime/report.h"

namespace vcop::runtime {
namespace {

// ----- presets -----

TEST(ConfigTest, Epxa1MatchesPaper) {
  const os::KernelConfig config = Epxa1Config();
  EXPECT_EQ(config.dp_ram_bytes, 16u * 1024);
  EXPECT_EQ(config.page_bytes, 2u * 1024);
  EXPECT_EQ(config.dp_ram_bytes / config.page_bytes, 8u);  // eight pages
  EXPECT_EQ(config.tlb_entries, 8u);
  EXPECT_EQ(config.imu_access_latency, 4u);
  EXPECT_FALSE(config.imu_pipelined);
  EXPECT_EQ(config.costs.cpu_clock.hertz(), 133'000'000u);
}

TEST(ConfigTest, FamilyGrowsMonotonically) {
  EXPECT_LT(Epxa1Config().dp_ram_bytes, Epxa4Config().dp_ram_bytes);
  EXPECT_LT(Epxa4Config().dp_ram_bytes, Epxa10Config().dp_ram_bytes);
  EXPECT_LT(Epxa1Config().pld_capacity_les, Epxa4Config().pld_capacity_les);
}

// ----- HostBuffer -----

TEST(HostBufferTest, FillViewRoundTrip) {
  FpgaSystem sys(Epxa1Config());
  auto buf = sys.Allocate<u32>(16);
  ASSERT_TRUE(buf.ok());
  std::vector<u32> data(16);
  for (u32 i = 0; i < 16; ++i) data[i] = i * i;
  buf.value().Fill(data);
  EXPECT_EQ(buf.value().ToVector(), data);
  EXPECT_EQ(buf.value().view()[3], 9u);
  buf.value().view()[3] = 42;
  EXPECT_EQ(buf.value().ToVector()[3], 42u);
}

TEST(HostBufferTest, TypedSizes) {
  FpgaSystem sys(Epxa1Config());
  auto b16 = sys.Allocate<i16>(10);
  ASSERT_TRUE(b16.ok());
  EXPECT_EQ(b16.value().size(), 10u);
  EXPECT_EQ(b16.value().size_bytes(), 20u);
}

TEST(HostBufferTest, ByteSizeBeyond32BitsIsRejected) {
  FpgaSystem sys(Epxa1Config());
  const u32 before = sys.kernel().user_memory().allocated();
  // 0x40000004 u32s are 2^32 + 16 bytes: cut to 32 bits, a 16-byte
  // region would sit under a view of a billion elements.
  auto wrapped = sys.Allocate<u32>(0x40000004);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), ErrorCode::kInvalidArgument);
  // One element fewer fits in 32 bits and reaches the user memory,
  // which has no room for it.
  auto too_big = sys.Allocate<u32>(0x3FFFFFFF);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(sys.kernel().user_memory().allocated(), before);
}

// ----- DirectPort / ManualRunner -----

TEST(ManualRunnerTest, VecAddThroughDirectPort) {
  // Run the *same* portable FSM against the manual platform layout.
  const u32 n = 32;
  std::vector<u8> a_bytes(n * 4), b_bytes(n * 4), c_bytes(n * 4);
  for (u32 i = 0; i < n; ++i) {
    for (u32 byte = 0; byte < 4; ++byte) {
      a_bytes[4 * i + byte] = static_cast<u8>((i + 1) >> (8 * byte));
      b_bytes[4 * i + byte] = static_cast<u8>((2 * i) >> (8 * byte));
    }
  }
  ManualObject a{cp::VecAddCoprocessor::kObjA, 4, n * 4, false, a_bytes, {}};
  ManualObject b{cp::VecAddCoprocessor::kObjB, 4, n * 4, false, b_bytes, {}};
  ManualObject c{cp::VecAddCoprocessor::kObjC, 4, n * 4, false, {}, c_bytes};
  const ManualObject objects[] = {a, b, c};
  const u32 params[] = {n};
  ManualRunner runner(os::CostModel{}, 16 * 1024);
  auto result = runner.Run(cp::VecAddBitstream(), objects, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (u32 i = 0; i < n; ++i) {
    u32 v = 0;
    for (u32 byte = 0; byte < 4; ++byte) {
      v |= static_cast<u32>(c_bytes[4 * i + byte]) << (8 * byte);
    }
    ASSERT_EQ(v, (i + 1) + 2 * i) << i;
  }
  EXPECT_GT(result.value().t_hw, 0u);
  EXPECT_GT(result.value().t_copy, 0u);
}

TEST(ManualRunnerTest, LayoutOverflowReported) {
  ManualObject big{0, 4, 20 * 1024, false, {}, {}};
  const ManualObject objects[] = {big};
  ManualRunner runner(os::CostModel{}, 16 * 1024);
  auto result = runner.Run(cp::VecAddBitstream(), objects, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kResourceExhausted);
}

TEST(ManualRunnerTest, RegisterObjectsDoNotCountAgainstDpRam) {
  // A 512-byte register object + 16 KB of data: fits because the
  // register file is separate.
  std::vector<u8> reg_data(512, 1);
  ManualObject regs{2, 2, 512, true, reg_data, {}};
  ManualObject data{0, 4, 16 * 1024, false, {}, {}};
  const ManualObject objects[] = {regs, data};
  ManualRunner runner(os::CostModel{}, 16 * 1024);
  // SIZE=0: the vecadd core finishes without touching its vectors, so
  // the run succeeds iff the layout was accepted.
  const u32 params[] = {0};
  auto result = runner.Run(cp::VecAddBitstream(), objects, params);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(ManualRunnerTest, RegisterFileOverflowReported) {
  std::vector<u8> reg_data(2048, 1);
  ManualObject regs{2, 2, 2048, true, reg_data, {}};
  const ManualObject objects[] = {regs};
  ManualRunner runner(os::CostModel{}, 16 * 1024);
  auto result = runner.Run(cp::VecAddBitstream(), objects, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("register file"),
            std::string::npos);
}

// ----- report formatting -----

TEST(ReportTest, MsAndSpeedupFormat) {
  EXPECT_EQ(Ms(1'500'000'000ULL), "1.50");
  EXPECT_EQ(Speedup(2'000'000'000ULL, 1'000'000'000ULL), "2.0x");
  EXPECT_EQ(Speedup(100, 0), "inf");
}

TEST(ReportTest, DescribeMentionsComponents) {
  os::ExecutionReport r;
  r.total = 4'000'000'000ULL;
  r.t_hw = 2'000'000'000ULL;
  r.t_dp = 1'500'000'000ULL;
  r.t_imu = 300'000'000ULL;
  r.t_invoke = 200'000'000ULL;
  r.vim.faults = 12;
  const std::string s = Describe(r);
  EXPECT_NE(s.find("4.00"), std::string::npos);
  EXPECT_NE(s.find("12 faults"), std::string::npos);
  const std::string d = DescribeDetailed(r);
  EXPECT_NE(d.find("DP management"), std::string::npos);
  EXPECT_NE(d.find("IMU management"), std::string::npos);
}

// ----- EnsureLoaded behaviour through drivers -----

TEST(DriversTest, SwitchingApplicationsReloadsTheFabric) {
  FpgaSystem sys(Epxa1Config());
  const std::vector<u32> a(64, 1), b(64, 2);
  auto add = RunVecAddVim(sys, a, b);
  ASSERT_TRUE(add.ok()) << add.status().ToString();
  EXPECT_EQ(sys.kernel().loaded_design()->name, "vecadd");

  const auto keys = apps::IdeaExpandKey(apps::MakeIdeaKey(1));
  const std::vector<u8> input = apps::MakeRandomBytes(256, 2);
  auto idea = RunIdeaVim(sys, keys, input);
  ASSERT_TRUE(idea.ok()) << idea.status().ToString();
  EXPECT_EQ(sys.kernel().loaded_design()->name, "idea");
}

}  // namespace
}  // namespace vcop::runtime
