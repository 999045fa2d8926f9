// Extended property matrix: the full cross-product of the extension
// features (copy modes x IMU microarchitectures x cleaning x policies)
// on all three applications, checking bit-exactness and the accounting
// invariants in every cell. This is the suite that guards against
// feature interactions — each knob is tested alone elsewhere; here they
// compose.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;

struct FeatureMix {
  mem::CopyMode copy_mode;
  bool pipelined;
  bool posted_writes;
  bool clean;
  os::PolicyKind policy;
};

os::KernelConfig ConfigFor(const FeatureMix& mix) {
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = mix.copy_mode;
  config.imu_pipelined = mix.pipelined;
  config.imu_posted_writes = mix.posted_writes;
  config.vim.policy = mix.policy;
  if (mix.clean) config.vim.prefetch = os::PrefetchKind::kClean;
  return config;
}

std::string MixName(const FeatureMix& mix) {
  std::string name(mem::ToString(mix.copy_mode));
  if (mix.pipelined) name += "+piped";
  if (mix.posted_writes) name += "+posted";
  if (mix.clean) name += "+clean";
  name += "+";
  name += ToString(mix.policy);
  return name;
}

void CheckInvariants(const os::ExecutionReport& r,
                     const FeatureMix& mix) {
  EXPECT_EQ(r.total, r.t_hw + r.t_dp + r.t_imu + r.t_invoke)
      << MixName(mix);
  EXPECT_EQ(r.tlb.lookups, r.tlb.hits + r.tlb.misses) << MixName(mix);
  EXPECT_EQ(r.imu.accesses, r.imu.reads + r.imu.writes) << MixName(mix);
  EXPECT_EQ(r.vim.dirty_in_pages_dropped, 0u) << MixName(mix);
}

// A representative but affordable sample of the cross-product: every
// feature appears on and off, pairwise combinations covered.
const FeatureMix kMixes[] = {
    {mem::CopyMode::kDoubleCopy, false, false, false,
     os::PolicyKind::kFifo},  // the paper platform
    {mem::CopyMode::kSingleCopy, false, false, false, os::PolicyKind::kLru},
    {mem::CopyMode::kDma, false, true, false, os::PolicyKind::kRandom},
    {mem::CopyMode::kDoubleCopy, true, false, true, os::PolicyKind::kLru},
    {mem::CopyMode::kSingleCopy, true, true, true, os::PolicyKind::kFifo},
    {mem::CopyMode::kDma, true, true, true, os::PolicyKind::kRandom},
};

class FeatureMatrixTest : public ::testing::TestWithParam<usize> {};

TEST_P(FeatureMatrixTest, AdpcmBitExact) {
  const FeatureMix& mix = kMixes[GetParam()];
  const std::vector<u8> input = apps::MakeAdpcmStream(6000, 501);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState st;
  apps::AdpcmDecode(input, expect, st);

  FpgaSystem sys(ConfigFor(mix));
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << MixName(mix) << ": "
                        << run.status().ToString();
  EXPECT_EQ(run.value().output, expect) << MixName(mix);
  CheckInvariants(run.value().report, mix);
}

TEST_P(FeatureMatrixTest, IdeaCbcBitExact) {
  const FeatureMix& mix = kMixes[GetParam()];
  const auto ek = apps::IdeaExpandKey(apps::MakeIdeaKey(502));
  apps::IdeaIv iv{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<u8> pt = apps::MakeRandomBytes(20480, 503);
  std::vector<u8> expect(pt.size());
  apps::IdeaCbcEncrypt(ek, iv, pt, expect);

  FpgaSystem sys(ConfigFor(mix));
  auto run = runtime::RunIdeaCbcVim(sys, ek, iv, true, pt);
  ASSERT_TRUE(run.ok()) << MixName(mix) << ": "
                        << run.status().ToString();
  EXPECT_EQ(run.value().output, expect) << MixName(mix);
  CheckInvariants(run.value().report, mix);
}

TEST_P(FeatureMatrixTest, ConvolutionBitExact) {
  const FeatureMix& mix = kMixes[GetParam()];
  const u32 w = 160, h = 120;
  const std::vector<u8> image = apps::MakeTestImage(w, h, 504);
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, w, h, apps::EmbossKernel(), 0, expect);

  FpgaSystem sys(ConfigFor(mix));
  auto run =
      runtime::RunConv3x3Vim(sys, image, w, h, apps::EmbossKernel(), 0);
  ASSERT_TRUE(run.ok()) << MixName(mix) << ": "
                        << run.status().ToString();
  EXPECT_EQ(run.value().output, expect) << MixName(mix);
  CheckInvariants(run.value().report, mix);
}

TEST_P(FeatureMatrixTest, BackToBackRunsStayClean) {
  // Two consecutive executions under each mix: state from the first
  // (queued clean units, posted writes, dirty tracking) must not
  // leak into the second.
  const FeatureMix& mix = kMixes[GetParam()];
  FpgaSystem sys(ConfigFor(mix));
  for (int round = 0; round < 2; ++round) {
    const std::vector<u8> input =
        apps::MakeAdpcmStream(3000, 600 + round);
    std::vector<i16> expect(input.size() * 2);
    apps::AdpcmState st;
    apps::AdpcmDecode(input, expect, st);
    auto run = runtime::RunAdpcmVim(sys, input);
    ASSERT_TRUE(run.ok()) << MixName(mix) << " round " << round;
    EXPECT_EQ(run.value().output, expect)
        << MixName(mix) << " round " << round;
    EXPECT_EQ(sys.kernel().vim().page_manager().frames_in_use(), 0u)
        << MixName(mix) << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, FeatureMatrixTest,
                         ::testing::Range<usize>(0, 6));

// ----- platform presets x applications -----

class PresetAppTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PresetAppTest, EveryAppOnEveryPreset) {
  const auto [preset_idx, app_idx] = GetParam();
  const os::KernelConfig config =
      preset_idx == 0   ? runtime::Epxa1Config()
      : preset_idx == 1 ? runtime::Epxa4Config()
                        : runtime::Epxa10Config();
  FpgaSystem sys(config);

  switch (app_idx) {
    case 0: {  // vecadd
      std::vector<u32> a(2500), b(2500);
      std::iota(a.begin(), a.end(), 1u);
      std::iota(b.begin(), b.end(), 9u);
      auto run = runtime::RunVecAddVim(sys, a, b);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      for (u32 i = 0; i < 2500; ++i) {
        ASSERT_EQ(run.value().output[i], a[i] + b[i]);
      }
      break;
    }
    case 1: {  // adpcm encode->decode hardware round trip
      const std::vector<i16> pcm = apps::MakeAudioPcm(4096, 700);
      auto enc = runtime::RunAdpcmEncodeVim(sys, pcm);
      ASSERT_TRUE(enc.ok()) << enc.status().ToString();
      auto dec = runtime::RunAdpcmVim(sys, enc.value().output);
      ASSERT_TRUE(dec.ok()) << dec.status().ToString();
      std::vector<u8> sw_coded(pcm.size() / 2);
      apps::AdpcmState es;
      apps::AdpcmEncode(pcm, sw_coded, es);
      EXPECT_EQ(enc.value().output, sw_coded);
      break;
    }
    case 2: {  // IDEA ECB
      const auto ek = apps::IdeaExpandKey(apps::MakeIdeaKey(701));
      const std::vector<u8> pt = apps::MakeRandomBytes(16384, 702);
      std::vector<u8> expect(pt.size());
      apps::IdeaCryptEcb(ek, pt, expect);
      auto run = runtime::RunIdeaVim(sys, ek, pt);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().output, expect);
      break;
    }
    case 3: {  // convolution
      const u32 w = 200, h = 80;
      const std::vector<u8> image = apps::MakeTestImage(w, h, 703);
      std::vector<u8> expect(image.size());
      apps::Convolve3x3(image, w, h, apps::BoxBlurKernel(), 3, expect);
      auto run = runtime::RunConv3x3Vim(sys, image, w, h,
                                        apps::BoxBlurKernel(), 3);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run.value().output, expect);
      break;
    }
    default:
      FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, PresetAppTest,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Range(0, 4)));

}  // namespace
}  // namespace vcop
