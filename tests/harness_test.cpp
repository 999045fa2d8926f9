// Tests for the harness the benches share (bench/common.h): every bench
// gate on output exactness goes through StagedJob::Exact, so that check
// must be able to fail.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "bench/common.h"

namespace vcop::bench {
namespace {

TEST(HarnessTest, ExactnessCheckPassesAfterTheRunAndFailsOnAFlippedByte) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  os::Vcopd daemon(sys.kernel());
  std::vector<StagedJob> jobs;
  for (const App app :
       {App::kAdpcm, App::kIdea, App::kVecAdd, App::kConv, App::kGather}) {
    jobs.push_back(StageTenant(sys, daemon, AppName(app),
                               MakeJob(app, 1024, kWorkloadSeed)));
  }
  for (const StagedJob& job : jobs) {
    // Staging leaves the output zeroed: the reference is not pre-filled.
    EXPECT_FALSE(job.Exact()) << AppName(job.job.app);
    ASSERT_TRUE(job.Submit(daemon).ok());
  }
  ASSERT_TRUE(daemon.RunUntilIdle().ok());
  EXPECT_EQ(daemon.stats().completed, jobs.size());

  for (StagedJob& job : jobs) {
    const char* app = AppName(job.job.app);
    EXPECT_TRUE(job.Exact()) << app;
    const std::span<u8> out = job.out.view();
    out[out.size() / 2] ^= 0x01;
    EXPECT_FALSE(job.Exact()) << app;
    out[out.size() / 2] ^= 0x01;
    EXPECT_TRUE(job.Exact()) << app;
  }
}

}  // namespace
}  // namespace vcop::bench
