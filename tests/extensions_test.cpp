// Tests for the extension features beyond the paper's prototype:
// background cleaning (`prefetch = clean`), the DMA transfer mode, the
// IMU's per-object limit registers, the ADPCM encoder core, and the
// Belady oracle.
#include <gtest/gtest.h>

#include <memory>

#include "apps/adpcm.h"
#include "apps/workloads.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "os/oracle.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

// ----- background cleaning, overlapped with the coprocessor -----

TEST(OverlapPrefetchTest, BitExactAndFasterOnAdpcm) {
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 31);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState st;
  apps::AdpcmDecode(input, expect, st);

  const os::KernelConfig off = Epxa1Config();
  os::KernelConfig on = off;
  on.vim.prefetch = os::PrefetchKind::kClean;

  FpgaSystem sys_off(off);
  auto r_off = runtime::RunAdpcmVim(sys_off, input);
  ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
  EXPECT_EQ(r_off.value().output, expect);

  FpgaSystem sys_on(on);
  auto r_on = runtime::RunAdpcmVim(sys_on, input);
  ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
  EXPECT_EQ(r_on.value().output, expect);

  // Overlap moves transfer time off the critical path: total shrinks.
  EXPECT_LT(r_on.value().report.total, r_off.value().report.total);
  // And its transfers are accounted as overlapped, not serial.
  EXPECT_GT(r_on.value().report.vim.t_dp_overlapped, 0u);
  EXPECT_EQ(r_on.value().report.vim.faults, r_off.value().report.vim.faults);
}

TEST(OverlapPrefetchTest, BeatsDemandPagingOnIdea) {
  const auto keys = apps::IdeaExpandKey(apps::MakeIdeaKey(33));
  const std::vector<u8> input = apps::MakeRandomBytes(32768, 34);
  std::vector<u8> expect(input.size());
  apps::IdeaCryptEcb(keys, input, expect);

  Picoseconds totals[2];
  int i = 0;
  for (const os::PrefetchKind prefetch :
       {os::PrefetchKind::kNone, os::PrefetchKind::kClean}) {
    os::KernelConfig config = Epxa1Config();
    config.vim.prefetch = prefetch;
    FpgaSystem sys(config);
    auto run = runtime::RunIdeaVim(sys, keys, input);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().output, expect);
    totals[i++] = run.value().report.total;
  }
  EXPECT_LT(totals[1], totals[0]);
}

TEST(OverlapPrefetchTest, GatherStaysCorrectUnderOverlap) {
  // Random access + clean units racing the coprocessor and the
  // evictions: the strongest consistency test for queued write-backs.
  const u32 n = 6000;
  const auto [in, perm] = apps::MakeRandomGather(n, 35);

  os::KernelConfig config = Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kClean;
  FpgaSystem sys(config);
  auto run = runtime::RunGatherVim(sys, in, perm);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (u32 i = 0; i < n; ++i) {
    ASSERT_EQ(run.value().output[i], in[perm[i]]) << i;
  }
}

TEST(OverlapPrefetchTest, RepeatedExecutionsDoNotLeakInFlightState) {
  os::KernelConfig config = Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kClean;
  FpgaSystem sys(config);
  for (int round = 0; round < 3; ++round) {
    const std::vector<u8> input = apps::MakeAdpcmStream(4096, 40 + round);
    auto run = runtime::RunAdpcmVim(sys, input);
    ASSERT_TRUE(run.ok()) << round << ": " << run.status().ToString();
    std::vector<i16> expect(input.size() * 2);
    apps::AdpcmState st;
    apps::AdpcmDecode(input, expect, st);
    EXPECT_EQ(run.value().output, expect) << round;
    EXPECT_EQ(sys.kernel().vim().page_manager().frames_in_use(), 0u);
  }
}

// ----- DMA transfer mode -----

TEST(DmaTest, CheaperThanAnyCpuCopy) {
  mem::TransferEngine engine(
      mem::AhbModel(mem::AhbTiming{}, Frequency::MHz(133)),
      Frequency::MHz(133), mem::CopyMode::kDoubleCopy, 12);
  const Picoseconds dbl = engine.PriceTransfer(2048);
  engine.set_mode(mem::CopyMode::kSingleCopy);
  const Picoseconds sgl = engine.PriceTransfer(2048);
  engine.set_mode(mem::CopyMode::kDma);
  const Picoseconds dma = engine.PriceTransfer(2048);
  EXPECT_LT(dma, sgl);
  EXPECT_LT(sgl, dbl);
}

TEST(DmaTest, EndToEndCorrectAndFaster) {
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 50);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState st;
  apps::AdpcmDecode(input, expect, st);

  Picoseconds dp_times[2];
  int i = 0;
  for (const mem::CopyMode mode :
       {mem::CopyMode::kDoubleCopy, mem::CopyMode::kDma}) {
    os::KernelConfig config = Epxa1Config();
    config.vim.copy_mode = mode;
    FpgaSystem sys(config);
    auto run = runtime::RunAdpcmVim(sys, input);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().output, expect);
    dp_times[i++] = run.value().report.t_dp;
  }
  EXPECT_LT(dp_times[1] * 3, dp_times[0]);
}

// ----- IMU limit registers -----

TEST(BoundsCheckTest, WithinPageOverrunCaughtWhenEnabled) {
  // Map 8 elements (well inside one page) and run 16: element 8 stays
  // in the mapped page, so the paper's IMU cannot see the overrun —
  // the limit registers can.
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::VecAddBitstream()).ok());
  auto a = sys.Allocate<u32>(8);
  auto b = sys.Allocate<u32>(8);
  auto c = sys.Allocate<u32>(8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sys.Map(0, a.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, b.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(2, c.value(), os::Direction::kOut).ok());

  auto report = sys.Execute({16u});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), ErrorCode::kOutOfRange);
  EXPECT_NE(report.status().message().find("limit register"),
            std::string::npos);
}

TEST(BoundsCheckTest, LegitimateRunsUnaffected) {
  FpgaSystem sys(Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(4096, 60);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState st;
  apps::AdpcmDecode(input, expect, st);
  EXPECT_EQ(run.value().output, expect);
}

// ----- ADPCM encoder core -----

TEST(AdpcmEncoderCoreTest, BitExactAgainstSoftwareEncoder) {
  const std::vector<i16> pcm = apps::MakeAudioPcm(8192, 70);
  std::vector<u8> expect(pcm.size() / 2);
  apps::AdpcmState st;
  apps::AdpcmEncode(pcm, expect, st);

  FpgaSystem sys(Epxa1Config());
  auto run = runtime::RunAdpcmEncodeVim(sys, pcm);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);
}

TEST(AdpcmEncoderCoreTest, HardwareCodecRoundTrip) {
  // Encode on the PLD, decode on the PLD, compare against a pure
  // software round trip.
  const std::vector<i16> pcm = apps::MakeAudioPcm(4096, 71);

  FpgaSystem sys(Epxa1Config());
  auto enc = runtime::RunAdpcmEncodeVim(sys, pcm);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  auto dec = runtime::RunAdpcmVim(sys, enc.value().output);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();

  std::vector<u8> sw_coded(pcm.size() / 2);
  apps::AdpcmState es;
  apps::AdpcmEncode(pcm, sw_coded, es);
  std::vector<i16> sw_decoded(pcm.size());
  apps::AdpcmState ds;
  apps::AdpcmDecode(sw_coded, sw_decoded, ds);
  EXPECT_EQ(dec.value().output, sw_decoded);
}

// ----- Belady oracle -----

TEST(OracleTest, NextUseEvictionBeatsOnlinePoliciesOnGather) {
  // Record pass -> replay with the oracle; it must produce at most as
  // many faults as the best online policy.
  const u32 n = 6000;
  const auto [in, perm] = apps::MakeRandomGather(n, 80);

  auto run_with = [&](os::PolicyKind kind,
                      std::shared_ptr<const os::PageRefTrace> trace,
                      std::shared_ptr<os::PageRefTrace> record)
      -> u64 {
    os::KernelConfig config = Epxa1Config();
    config.vim.policy = kind;
    FpgaSystem sys(config);
    // Load first so the IMU exists, then attach probe/policy.
    auto ensure = sys.Load(cp::GatherBitstream());
    VCOP_CHECK_MSG(ensure.ok(), ensure.ToString());
    os::OraclePolicy* oracle = nullptr;
    if (trace != nullptr) {
      auto policy = std::make_unique<os::OraclePolicy>(trace);
      oracle = policy.get();
      sys.kernel().vim().SetPolicy(std::move(policy));
    }
    sys.kernel().imu()->set_page_ref_probe(
        [record, oracle](hw::ObjectId object, mem::VirtPage vpage) {
          if (record != nullptr) {
            record->push_back(os::PageRef{object, vpage});
          }
          if (oracle != nullptr) oracle->OnReference(object, vpage);
        });
    auto run = runtime::RunGatherVim(sys, in, perm);
    VCOP_CHECK_MSG(run.ok(), run.status().ToString());
    for (u32 i = 0; i < n; ++i) {
      VCOP_CHECK(run.value().output[i] == in[perm[i]]);
    }
    return run.value().report.vim.faults;
  };

  auto trace = std::make_shared<os::PageRefTrace>();
  const u64 fifo_faults =
      run_with(os::PolicyKind::kFifo, nullptr, trace);
  const u64 lru_faults =
      run_with(os::PolicyKind::kLru, nullptr, nullptr);
  const u64 oracle_faults = run_with(
      os::PolicyKind::kFifo,
      std::shared_ptr<const os::PageRefTrace>(trace), nullptr);

  EXPECT_LE(oracle_faults, fifo_faults);
  EXPECT_LE(oracle_faults, lru_faults);
  EXPECT_LT(oracle_faults, fifo_faults) << "oracle should strictly win "
                                           "on a thrashing pattern";
}

TEST(OracleTest, DivergentReplayAborts) {
  auto trace = std::make_shared<os::PageRefTrace>();
  trace->push_back(os::PageRef{1, 0});
  os::OraclePolicy oracle(trace);
  oracle.Reset(4);
  EXPECT_DEATH(oracle.OnReference(2, 5), "diverged");
}

TEST(OracleTest, PicksFarthestNextUse) {
  auto trace = std::make_shared<os::PageRefTrace>();
  // Reference string: A B C A B (pages as (obj=0, vpage)).
  for (const u32 p : {0u, 1u, 2u, 0u, 1u}) {
    trace->push_back(os::PageRef{0, p});
  }
  os::OraclePolicy oracle(trace);
  oracle.Reset(3);
  oracle.OnInstalled(0, 0, 0);  // A in frame 0
  oracle.OnInstalled(1, 0, 1);  // B in frame 1
  oracle.OnInstalled(2, 0, 2);  // C in frame 2
  // After the first three references, the future is A, B: C is never
  // used again -> evict frame 2.
  oracle.OnReference(0, 0);
  oracle.OnReference(0, 1);
  oracle.OnReference(0, 2);
  EXPECT_EQ(oracle.PickVictim({true, true, true}), 2u);
  // With C excluded, B (position 4) is farther than A (position 3).
  EXPECT_EQ(oracle.PickVictim({true, true, false}), 1u);
}

}  // namespace
}  // namespace vcop
