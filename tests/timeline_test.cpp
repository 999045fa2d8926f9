// Tests for the execution timeline recorder and its Chrome-trace export.
#include <gtest/gtest.h>

#include "apps/workloads.h"
#include "base/table.h"
#include "bench/common.h"
#include "hw/tlb.h"
#include "mem/page.h"
#include "os/timeline.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

TEST(TimelineTest, RecordsAndExports) {
  os::TimelineRecorder timeline;
  timeline.Record(os::TimelineKind::kFault, 1'000'000, 2'000'000, {0, 1});
  timeline.Record(os::TimelineKind::kExecute, 0, 10'000'000, {}, "adpcm");
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
  timeline.Record(os::TimelineKind::kExecute, 0, 1, {}, "quote\"back\\slash");
  const std::string json = timeline.ToChromeTrace();
  EXPECT_NE(json.find("\"name\":\"execute quote\\\"back\\\\slash\""),
            std::string::npos);
}

TEST(TimelineTest, EveryKindRoundTrips) {
  // Each kind is checked against the name its call site formatted
  // before events were typed, with operands at their type maxima and
  // at zero. Starts step backwards and wrap (2^64-1 right after 0),
  // and durations reach 0 and 2^64-1. Forty rounds of every kind fill
  // many chunks, with events straddling their boundaries.
  constexpr u64 kMax = ~u64{0};
  constexpr hw::ObjectId kObject = 0xff;  // hw::ObjectId is 8 bits
  constexpr mem::VirtPage kPage = 0xffffffff;
  constexpr u32 kPid = 0xffffffff;
  constexpr u32 kTenant = 0xffffffff;
  const std::string design = "idea_ecb";
  const std::string other = "adpcm_decoder";
  const Picoseconds starts[] = {0, kMax, kMax - 1, 5, 4, 0, kMax, 1, 0};
  const Picoseconds durations[] = {0, kMax, 1, kMax - 1, 92'317'000};

  os::TimelineRecorder timeline;
  std::vector<os::TimelineEvent> want;
  usize n = 0;
  const auto record = [&](os::TimelineKind kind,
                          std::initializer_list<u64> ids,
                          std::string_view name_design, std::string name,
                          std::string category, u32 track) {
    const Picoseconds start = starts[n % std::size(starts)];
    const Picoseconds duration = durations[n % std::size(durations)];
    ++n;
    timeline.Record(kind, start, duration, ids, name_design);
    want.push_back({std::move(name), std::move(category), start, duration,
                    track});
  };
  using K = os::TimelineKind;
  for (u32 round = 0; round < 40; ++round) {
    const std::string& d = round % 2 == 0 ? design : other;
    const hw::ObjectId object = round % 2 == 0 ? kObject : 0;
    const mem::VirtPage page = round % 2 == 0 ? kPage : round;
    const u32 pid = round % 2 == 0 ? kPid : 0;
    const u32 tenant = round % 2 == 0 ? kTenant : 1;
    const u64 batch = round % 2 == 0 ? kMax : 1;
    record(K::kConfigure, {}, d, StrFormat("configure %s", d.c_str()),
           "config", 0);
    record(K::kExecute, {}, d, StrFormat("execute %s", d.c_str()), "exec",
           1);
    record(K::kFault, {object, page}, {},
           StrFormat("fault obj%u page%u", object, page), "fault", 0);
    record(K::kClean, {object, page}, {},
           StrFormat("clean obj%u page%u", object, page), "overlap", 2);
    record(K::kSweep, {}, {}, "end-of-operation sweep", "transfer", 0);
    record(K::kPreempt, {pid, object}, {},
           StrFormat("preempt pid%u obj%u", pid, object), "preempt", 3);
    record(K::kRingDrain, {tenant, batch}, {},
           StrFormat("ring drain tenant%u x%llu", tenant,
                     static_cast<unsigned long long>(batch)),
           "service", 3);
    record(K::kVcopdConfigure, {}, d,
           StrFormat("vcopd configure %s", d.c_str()), "config", 3);
    record(K::kVcopdActivate, {}, d,
           StrFormat("vcopd activate %s", d.c_str()), "config", 3);
    record(K::kVcopdDispatch, {pid}, d,
           StrFormat("vcopd dispatch pid%u %s", pid, d.c_str()), "exec", 3);
    record(K::kVcopdResume, {pid}, d,
           StrFormat("vcopd resume pid%u %s", pid, d.c_str()), "exec", 3);
    record(K::kVcopdComplete, {pid}, d,
           StrFormat("vcopd complete pid%u %s%s", pid, d.c_str(), ""),
           "exec", 3);
    record(K::kVcopdFailed, {pid}, d,
           StrFormat("vcopd complete pid%u %s%s", pid, d.c_str(),
                     " (failed)"),
           "exec", 3);
  }

  EXPECT_EQ(timeline.size(), want.size());
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
  config.vim.prefetch = os::PrefetchKind::kClean;
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

TEST(TimelineTest, ConvChromeTraceHoldsCleanUnits) {
  // bench_fastforward and bench_tlb compare this trace across engines
  // and TLB granules: it must cover background work, not only faults.
  const std::string json = bench::ConvChromeTrace(runtime::Epxa1Config());
  EXPECT_NE(json.find("\"cat\":\"overlap\""), std::string::npos);
}

}  // namespace
}  // namespace vcop
