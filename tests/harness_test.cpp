// Tests for the harness the benches share (bench/common.h): every bench
// gate on output exactness goes through StagedJob::Exact, so that check
// must be able to fail; and the one runner of the JSON benches (Bench)
// must write its schema, fail a failing gate and refuse a name that no
// table has.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
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

/// A two-row bench with one gate that passes on both rows and one that
/// fails: Finish returns 1 and writes the schema's top-level keys in
/// order, "host" last.
TEST(BenchTest, WritesTheSchemaAndExitsOneOnAFailingGate) {
  Bench bench("bench_test");
  bench.Run({{"a", [](Values& v) { v.Count("n", 3).Real("x", 0.5, 2); }},
             {"b", [](Values& v) { v.Count("n", 5).Host("wall_ms", 1.0, 3); }}});
  EXPECT_EQ(bench.Get("b", "n").number, 5.0);
  EXPECT_EQ(bench.Finish({{"", "n", Cmp::kGt, 2},
                          // 0.5 < 0.1 x 5: fails.
                          {"a", "x", Cmp::kLt, 0, "b", "n", 0.1}}),
            1);

  std::ifstream in("BENCH_bench_test.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::remove("BENCH_bench_test.json");
  usize last = 0;
  for (const char* key : {"\"bench\": \"bench_test\"", "\"rows\": [",
                          "\"gates\": [", "\"gates_pass\": false",
                          "\"host\": {"}) {
    const usize at = json.find(std::string("\n  ") + key);
    ASSERT_NE(at, std::string::npos) << key << " in\n" << json;
    EXPECT_GT(at, last) << key;
    last = at;
  }
  // Nothing follows "host" at the top level.
  EXPECT_EQ(json.find("\n  \"", last + 1), std::string::npos);
  EXPECT_NE(json.find("\"gate\": \"[a] n > 2\", \"value\": 3, "
                      "\"bound\": 2, \"pass\": true"),
            std::string::npos);
  EXPECT_NE(json.find("\"gate\": \"[a] x < 0.1 x [b] n\", \"value\": 0.50, "
                      "\"bound\": 0.50, \"pass\": false"),
            std::string::npos);
}

TEST(BenchDeathTest, ANameMissingFromTheTablesFailsLoudly) {
  const std::vector<Field> table = os::FieldsOf(os::VcopdStats{});
  Values v;
  v.Add(table, {"vcopd.preemptions", "vcopd.total_config_time_us"});
  EXPECT_EQ(v.named.size(), 2u);
  EXPECT_DEATH(v.Add(table, {"vcopd.preemption"}),
               "no field named vcopd.preemption");
  // Only a time (a "_ps" field) converts to microseconds.
  EXPECT_DEATH(v.Add(table, {"vcopd.preemptions_us"}),
               "no field named vcopd.preemptions_us");
  Bench bench("bench_death_test");
  bench.Run({{"a", [&v](Values& row) { row = v; }}});
  EXPECT_DEATH(bench.Get("a", "vcopd.dispatches"),
               "row a reports no value named vcopd.dispatches");
  EXPECT_DEATH(bench.Finish({{"", "vcopd.dispatches", Cmp::kEq, 0}}),
               "no row reports vcopd.dispatches");
}

}  // namespace
}  // namespace vcop::bench
