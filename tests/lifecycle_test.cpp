// Kernel and API lifecycle tests: load/unload sequencing, mapping
// rules, re-execution behaviour, and miscellaneous error paths not
// covered by the per-module suites.
#include <gtest/gtest.h>

#include <numeric>

#include "cp/gather_cp.h"
#include "cp/registry.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

TEST(LifecycleTest, DoubleLoadRejected) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  ASSERT_NE(sys.kernel().loaded_design(), nullptr);
  EXPECT_EQ(sys.kernel().loaded_design()->core->name(), "vecadd");
  // The PLD is exclusive (§3.1) until FPGA_UNLOAD releases it.
  const Status again = sys.Load(cp::IdeaBitstream());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(sys.Unload().ok());
  EXPECT_EQ(sys.kernel().loaded_design(), nullptr);
  EXPECT_TRUE(sys.Load(cp::IdeaBitstream()).ok());
}

TEST(LifecycleTest, UnloadWithoutLoadRejected) {
  FpgaSystem sys(Epxa1Config());
  EXPECT_EQ(sys.Unload().code(), ErrorCode::kFailedPrecondition);
}

TEST(LifecycleTest, LoadUnloadLoadCycles) {
  FpgaSystem sys(Epxa1Config());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok()) << round;
    ASSERT_TRUE(sys.Unload().ok()) << round;
  }
}

TEST(LifecycleTest, LoadAdvancesConfigurationTime) {
  FpgaSystem sys(Epxa1Config());
  const Picoseconds before = sys.kernel().simulator().now();
  ASSERT_TRUE(sys.Load(cp::IdeaBitstream()).ok());
  const Picoseconds after = sys.kernel().simulator().now();
  // 192 KB at 4 MiB/s = 46.875 ms of configuration.
  EXPECT_EQ(after - before, sys.kernel().last_load_time());
  EXPECT_NEAR(ToMilliseconds(after - before), 46.875, 0.01);
}

TEST(LifecycleTest, DesignTooBigForPld) {
  os::KernelConfig config = Epxa1Config();
  config.pld_capacity_les = 1000;
  FpgaSystem sys(config);
  const Status load = sys.Load(cp::IdeaBitstream());  // 3900 LEs
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.code(), ErrorCode::kResourceExhausted);
}

TEST(LifecycleTest, MapRequiresAllocatedMemory) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  const Status bad = sys.kernel().FpgaMapObject(
      0, /*addr=*/0x100000, /*size=*/64, 4, os::Direction::kIn);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInvalidArgument);
}

TEST(LifecycleTest, ObjectsSurviveAcrossExecutions) {
  // Map once, execute twice with different parameters: the second run
  // sees updated buffer contents (the mapping is by reference, §3.1).
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  const u32 n = 64;
  auto a = sys.Allocate<u32>(n);
  auto b = sys.Allocate<u32>(n);
  auto c = sys.Allocate<u32>(n);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kOut).ok());

  for (u32 round = 1; round <= 2; ++round) {
    for (u32 i = 0; i < n; ++i) {
      a.value().view()[i] = i * round;
      b.value().view()[i] = 100 * round;
    }
    auto report = sys.Execute({n});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (u32 i = 0; i < n; ++i) {
      ASSERT_EQ(c.value().view()[i], i * round + 100 * round)
          << "round " << round << " i " << i;
    }
  }
}

TEST(LifecycleTest, UnmappedObjectFaultsAsNeverMapped) {
  // gather reads perm[0] = 100, then in[100]. With `in` unmapped since
  // the design's previous run, the run must fail exactly as it does on
  // a system where `in` was never mapped: its old descriptor (width and
  // limit register) may not survive into the new execution.
  using Cp = cp::GatherCoprocessor;
  constexpr u32 n = 16;
  struct Failed {
    Status status;
    u64 tlb_lookups = 0;
  };
  auto run = [](bool bounds_check, bool map_in_first) {
    os::KernelConfig config = Epxa1Config();
    config.imu_bounds_check = bounds_check;
    FpgaSystem sys(config);
    VCOP_CHECK(sys.Load(cp::GatherBitstream()).ok());
    auto in = sys.Allocate<u32>(n).value();
    auto out = sys.Allocate<u32>(n).value();
    auto perm = sys.Allocate<u32>(n).value();
    for (u32 i = 0; i < n; ++i) perm.view()[i] = n - 1 - i;
    VCOP_CHECK(sys.Map(Cp::kObjOut, out, os::Direction::kOut).ok());
    VCOP_CHECK(sys.Map(Cp::kObjPerm, perm, os::Direction::kIn).ok());
    if (map_in_first) {
      VCOP_CHECK(sys.Map(Cp::kObjIn, in, os::Direction::kIn).ok());
      VCOP_CHECK(sys.Execute({n}).ok());
      VCOP_CHECK(sys.Unmap(Cp::kObjIn).ok());
    }
    perm.view()[0] = 100;
    const u64 lookups = sys.kernel().shared_tlb().stats().lookups;
    auto report = sys.Execute({n});
    VCOP_CHECK(!report.ok());
    return Failed{report.status(),
                  sys.kernel().shared_tlb().stats().lookups - lookups};
  };
  for (const bool bounds_check : {true, false}) {
    SCOPED_TRACE(bounds_check ? "bounds check" : "no bounds check");
    const Failed never = run(bounds_check, /*map_in_first=*/false);
    const Failed unmapped = run(bounds_check, /*map_in_first=*/true);
    EXPECT_EQ(never.status.code(), ErrorCode::kNotFound);
    EXPECT_NE(never.status.message().find("never mapped"),
              std::string::npos)
        << never.status.ToString();
    EXPECT_EQ(unmapped.status.ToString(), never.status.ToString());
    EXPECT_EQ(unmapped.tlb_lookups, never.tlb_lookups);
  }
}

TEST(LifecycleTest, SimulatedTimeIsMonotonicAcrossCalls) {
  FpgaSystem sys(Epxa1Config());
  std::vector<u32> a(256, 1), b(256, 2);
  auto r1 = runtime::RunVecAddVim(sys, a, b);
  ASSERT_TRUE(r1.ok());
  const Picoseconds t1 = sys.kernel().simulator().now();
  auto r2 = runtime::RunVecAddVim(sys, a, b);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(sys.kernel().simulator().now(), t1);
}

TEST(LifecycleTest, ReportsAreIndependentPerExecution) {
  FpgaSystem sys(Epxa1Config());
  std::vector<u32> small(64, 1);
  std::vector<u32> large(4096, 1);
  auto r_large = runtime::RunVecAddVim(sys, large, large);
  ASSERT_TRUE(r_large.ok());
  auto r_small = runtime::RunVecAddVim(sys, small, small);
  ASSERT_TRUE(r_small.ok());
  // The second (small) report must not inherit the first run's faults.
  EXPECT_LT(r_small.value().report.vim.faults,
            r_large.value().report.vim.faults);
  EXPECT_LT(r_small.value().report.total, r_large.value().report.total);
}

TEST(LifecycleTest, DeterministicAcrossIdenticalSystems) {
  // Two fresh systems given identical inputs produce identical reports
  // — the whole simulation is bit-reproducible.
  auto run = [] {
    FpgaSystem sys(Epxa1Config());
    std::vector<u32> a(3000), b(3000);
    std::iota(a.begin(), a.end(), 7u);
    std::iota(b.begin(), b.end(), 13u);
    auto r = runtime::RunVecAddVim(sys, a, b);
    VCOP_CHECK(r.ok());
    return r.value().report;
  };
  const os::ExecutionReport r1 = run();
  const os::ExecutionReport r2 = run();
  EXPECT_EQ(r1.total, r2.total);
  EXPECT_EQ(r1.t_hw, r2.t_hw);
  EXPECT_EQ(r1.t_dp, r2.t_dp);
  EXPECT_EQ(r1.vim.faults, r2.vim.faults);
  EXPECT_EQ(r1.cp_cycles, r2.cp_cycles);
}

TEST(LifecycleTest, ZeroElementExecutionCompletes) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  auto a = sys.Allocate<u32>(4);
  auto b = sys.Allocate<u32>(4);
  auto c = sys.Allocate<u32>(4);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kOut).ok());
  auto report = sys.Execute({0u});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().vim.faults, 0u);
  EXPECT_EQ(report.value().imu.writes, 0u);
}

TEST(LifecycleTest, ManyParametersUpToThePageLimit) {
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  auto a = sys.Allocate<u32>(4);
  auto b = sys.Allocate<u32>(4);
  auto c = sys.Allocate<u32>(4);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kOut).ok());
  // 512 u32 = exactly one 2 KB parameter page; param 0 (SIZE) = 4.
  std::vector<u32> params(512, 0);
  params[0] = 4;
  auto report = sys.Execute(std::span<const u32>(params));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

}  // namespace
}  // namespace vcop
