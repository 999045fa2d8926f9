// End-to-end integration for the adpcmdecode application (§4.1):
// coprocessor output must be bit-exact against the software reference
// for every input size of Figure 8, including those that overflow the
// dual-port RAM and page-fault their way through.
#include <gtest/gtest.h>

#include "apps/adpcm.h"
#include "apps/sw_model.h"
#include "apps/workloads.h"
#include "cp/adpcm_cp.h"
#include "cp/registry.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using runtime::Epxa1Config;
using runtime::FpgaSystem;
using runtime::RunAdpcmVim;

std::vector<i16> SoftwareDecode(std::span<const u8> input) {
  std::vector<i16> out(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, out, state);
  return out;
}

TEST(AdpcmIntegrationTest, BitExactAgainstSoftwareSmall) {
  FpgaSystem sys(Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(256, /*seed=*/1);
  auto run = RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, SoftwareDecode(input));
}

// The paper's three Figure-8 input sizes. 2 KB fits (1 input page +
// 4 output pages); 4 KB and 8 KB fault.
class AdpcmFigure8SizesTest : public ::testing::TestWithParam<usize> {};

TEST_P(AdpcmFigure8SizesTest, BitExactAndFaultBehaviourMatchesPaper) {
  const usize input_bytes = GetParam();
  FpgaSystem sys(Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(input_bytes, 42);
  auto run = RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, SoftwareDecode(input));

  const os::ExecutionReport& r = run.value().report;
  const u64 data_pages = r.vim.faults;
  if (input_bytes <= 2048) {
    // "For an input data size of 2 KB [...] all data can fit the
    // dual-port RAM and the application execution completes without
    // causing page faults" — beyond the compulsory first-touch ones
    // (1 input page + 4 output pages), and crucially no evictions.
    EXPECT_LE(data_pages, 5u);
    EXPECT_EQ(r.vim.evictions, 0u);
  } else {
    // "For all other input sizes, page faults occur."
    EXPECT_GT(r.vim.evictions, 0u);
  }
  // Output = 4x input: every output page must be written back.
  EXPECT_EQ(r.vim.bytes_written_back, input_bytes * 4);
}

INSTANTIATE_TEST_SUITE_P(Figure8Sizes, AdpcmFigure8SizesTest,
                         ::testing::Values(2048, 4096, 8192));

TEST(AdpcmIntegrationTest, SpeedupOverSoftwareInPaperBand) {
  // Figure 8 reports 1.5x-1.6x for the VIM-based coprocessor over pure
  // software. Allow a generous band: the shape matters, not the third
  // decimal.
  FpgaSystem sys(Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 7);
  auto run = RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const apps::ArmTimingModel arm;
  const Picoseconds sw = arm.AdpcmDecodeTime(input.size());
  const double speedup = static_cast<double>(sw) /
                         static_cast<double>(run.value().report.total);
  EXPECT_GT(speedup, 1.2) << "coprocessor should beat software";
  EXPECT_LT(speedup, 2.2) << "adpcm speedup should stay modest (paper: 1.6x)";
}

TEST(AdpcmIntegrationTest, ImuManagementShareIsSmall) {
  // §4.1: "the software execution time for IMU management [...] is up
  // to 2.5% of the total execution time."
  FpgaSystem sys(Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 3);
  auto run = RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const os::ExecutionReport& r = run.value().report;
  EXPECT_LT(static_cast<double>(r.t_imu) / static_cast<double>(r.total),
            0.025);
}

TEST(AdpcmIntegrationTest, PredictorStateParametersAreHonoured) {
  // Start the coprocessor mid-stream: decode the second half with the
  // predictor state left by the first half, via the scalar parameters.
  const std::vector<u8> input = apps::MakeAdpcmStream(512, 9);
  const auto full = SoftwareDecode(input);

  // Software: state after the first half.
  apps::AdpcmState state;
  std::vector<i16> tmp(512);
  apps::AdpcmDecode(std::span<const u8>(input).subspan(0, 256), tmp, state);

  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::AdpcmDecodeBitstream()).ok());
  auto in = sys.Allocate<u8>(256);
  auto out = sys.Allocate<i16>(512);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(out.ok());
  in.value().Fill(std::span<const u8>(input).subspan(256, 256));
  ASSERT_TRUE(sys.Map(cp::AdpcmDecodeCoprocessor::kObjIn, in.value(),
                      os::Direction::kIn)
                  .ok());
  ASSERT_TRUE(sys.Map(cp::AdpcmDecodeCoprocessor::kObjOut, out.value(),
                      os::Direction::kOut)
                  .ok());
  auto report = sys.Execute(
      {256u, static_cast<u32>(static_cast<u16>(state.valprev)),
       static_cast<u32>(state.index)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const std::vector<i16> second_half = out.value().ToVector();
  for (usize i = 0; i < 512; ++i) {
    ASSERT_EQ(second_half[i], full[512 + i]) << i;
  }
}

TEST(AdpcmIntegrationTest, MissingParametersFailOutOfRange) {
  // adpcm reads three parameters. Reading one the caller did not pass
  // fails OUT_OF_RANGE whether it passed too few or none at all, and
  // the system serves the next call.
  FpgaSystem sys(Epxa1Config());
  ASSERT_TRUE(sys.Load(cp::AdpcmDecodeBitstream()).ok());
  auto in = sys.Allocate<u8>(256);
  auto out = sys.Allocate<i16>(512);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(sys.Map(cp::AdpcmDecodeCoprocessor::kObjIn, in.value(),
                      os::Direction::kIn)
                  .ok());
  ASSERT_TRUE(sys.Map(cp::AdpcmDecodeCoprocessor::kObjOut, out.value(),
                      os::Direction::kOut)
                  .ok());
  for (const std::vector<u32>& params :
       {std::vector<u32>{}, std::vector<u32>{256u, 0u}}) {
    const auto report = sys.Execute(std::span<const u32>(params));
    ASSERT_FALSE(report.ok()) << params.size() << " parameters";
    EXPECT_EQ(report.status().code(), ErrorCode::kOutOfRange)
        << report.status().ToString();
  }
  EXPECT_TRUE(sys.Execute({256u, 0u, 0u}).ok());
}

TEST(AdpcmIntegrationTest, OutOfRangeStepIndexSaturates) {
  // The step-table index arrives as a caller's parameter. Both ADPCM
  // cores saturate an index past the table's end at its last entry, so
  // they match the software codec started there.
  const std::vector<u8> codes = apps::MakeAdpcmStream(256, 13);
  const std::vector<i16> pcm = apps::MakeAudioPcm(512, 14);
  std::vector<i16> decoded(2 * codes.size());
  std::vector<u8> encoded(pcm.size() / 2);
  apps::AdpcmState dec_state{0, apps::kAdpcmMaxIndex};
  apps::AdpcmState enc_state{0, apps::kAdpcmMaxIndex};
  apps::AdpcmDecode(codes, decoded, dec_state);
  apps::AdpcmEncode(pcm, encoded, enc_state);

  FpgaSystem sys(Epxa1Config());
  runtime::FpgaJob decode = runtime::AdpcmDecodeJob(codes);
  decode.params[2] = 200;
  const auto dec = runtime::RunJob(sys, decode);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec.value().output,
            runtime::AsBytes(std::span<const i16>(decoded)));

  runtime::FpgaJob encode = runtime::AdpcmEncodeJob(pcm);
  encode.params[2] = 255;
  const auto enc = runtime::RunJob(sys, encode);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_EQ(enc.value().output, encoded);
}

}  // namespace
}  // namespace vcop
