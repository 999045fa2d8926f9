// Tests for the execution timeline recorder and its Chrome-trace export.
#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "base/table.h"
#include "os/timeline.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

TEST(TimelineTest, RecordsAndExports) {
  os::TimelineRecorder timeline;
  timeline.Record("fault obj0 page1", "fault", 1'000'000, 2'000'000, 0);
  timeline.Record("execute adpcm", "exec", 0, 10'000'000, 1);
  ASSERT_EQ(timeline.events().size(), 2u);

  const std::string json = timeline.ToChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault obj0 page1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"exec\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // 1e6 ps = 1 us timestamps.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

TEST(TimelineTest, EscapesJsonSpecials) {
  os::TimelineRecorder timeline;
  timeline.Record("quote\"back\\slash", "cat", 0, 1, 0);
  const std::string json = timeline.ToChromeTrace();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TimelineTest, RepeatedNamesRoundTrip) {
  // Each distinct name and category is stored once; every event must
  // still come back whole and in recording order.
  os::TimelineRecorder timeline;
  std::vector<os::TimelineEvent> want;
  for (u32 i = 0; i < 1000; ++i) {
    os::TimelineEvent e{StrFormat("fault obj%u page%u", i % 10, i % 10),
                        std::string(i % 3 == 0   ? "fault"
                                    : i % 3 == 1 ? "exec"
                                                 : "overlap"),
                        1000ull * i, 7ull * i + 1, i % 4};
    timeline.Record(e.name, e.category, e.start, e.duration, e.track);
    want.push_back(std::move(e));
  }
  EXPECT_EQ(timeline.size(), 1000u);
  const std::vector<os::TimelineEvent> got = timeline.events();
  ASSERT_EQ(got.size(), want.size());
  for (usize i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].category, want[i].category);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].duration, want[i].duration);
    EXPECT_EQ(got[i].track, want[i].track);
  }
}

TEST(TimelineTest, KernelPopulatesTimelineDuringRuns) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 7);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const auto& events = sys.kernel().timeline().events();
  usize configs = 0, execs = 0, faults = 0, sweeps = 0;
  for (const auto& event : events) {
    configs += event.category == "config";
    execs += event.category == "exec";
    faults += event.category == "fault";
    sweeps += event.category == "transfer";
  }
  EXPECT_EQ(configs, 1u);
  EXPECT_EQ(execs, 1u);
  EXPECT_EQ(faults, run.value().report.vim.faults +
                        run.value().report.vim.tlb_refills);
  EXPECT_EQ(sweeps, 1u);

  // Every fault span lies inside the execute span.
  Picoseconds exec_start = 0, exec_end = 0;
  for (const auto& event : events) {
    if (event.category == "exec") {
      exec_start = event.start;
      exec_end = event.start + event.duration;
    }
  }
  for (const auto& event : events) {
    if (event.category != "fault") continue;
    EXPECT_GE(event.start, exec_start);
    EXPECT_LE(event.start + event.duration, exec_end);
  }
}

TEST(TimelineTest, OverlappedUnitsLandOnBackgroundTrack) {
  os::KernelConfig config = runtime::Epxa1Config();
  config.vim.prefetch = os::PrefetchKind::kSequential;
  runtime::FpgaSystem sys(config);
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 9);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  usize overlap_units = 0;
  for (const auto& event : sys.kernel().timeline().events()) {
    if (event.category == "overlap") {
      EXPECT_EQ(event.track, 2u);
      ++overlap_units;
    }
  }
  EXPECT_GT(overlap_units, 0u);
}

}  // namespace
}  // namespace vcop
