// Unit tests for src/base: Status/Result, bit operations, units,
// deterministic RNG, logging, and the table formatter.
#include <gtest/gtest.h>

#include <set>

#include "base/bitops.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/table.h"
#include "base/units.h"

namespace vcop {
namespace {

// ----- Status / Result -----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad width");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(OutOfRangeError("x").code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(NotFoundError("x").code(), ErrorCode::kNotFound);
  EXPECT_EQ(UnavailableError("x").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(InternalError("x").code(), ErrorCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ----- bitops -----

TEST(BitopsTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1ULL << 63));
  EXPECT_FALSE(IsPowerOfTwo((1ULL << 63) + 1));
}

TEST(BitopsTest, Log2OfPowers) {
  EXPECT_EQ(Log2(1), 0u);
  EXPECT_EQ(Log2(2), 1u);
  EXPECT_EQ(Log2(2048), 11u);
  EXPECT_EQ(Log2(1ULL << 63), 63u);
}

TEST(BitopsTest, LowMask) {
  EXPECT_EQ(LowMask(0), 0u);
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(16), 0xFFFFu);
  EXPECT_EQ(LowMask(64), ~u64{0});
}

TEST(BitopsTest, ExtractAndDeposit) {
  const u64 v = 0xDEADBEEFCAFEF00DULL;
  EXPECT_EQ(ExtractBits(v, 0, 16), 0xF00Du);
  EXPECT_EQ(ExtractBits(v, 32, 16), 0xBEEFu);
  EXPECT_EQ(DepositBits(0, 8, 8, 0xAB), 0xAB00u);
  // Round trip: deposit then extract.
  const u64 w = DepositBits(v, 20, 12, 0x123);
  EXPECT_EQ(ExtractBits(w, 20, 12), 0x123u);
  // Other bits untouched.
  EXPECT_EQ(ExtractBits(w, 0, 20), ExtractBits(v, 0, 20));
  EXPECT_EQ(ExtractBits(w, 32, 32), ExtractBits(v, 32, 32));
}

TEST(BitopsTest, AlignHelpers) {
  EXPECT_EQ(AlignUp(0, 16), 0u);
  EXPECT_EQ(AlignUp(1, 16), 16u);
  EXPECT_EQ(AlignUp(16, 16), 16u);
  EXPECT_EQ(AlignDown(17, 16), 16u);
  EXPECT_EQ(DivCeil(0, 4), 0u);
  EXPECT_EQ(DivCeil(1, 4), 1u);
  EXPECT_EQ(DivCeil(8, 4), 2u);
  EXPECT_EQ(DivCeil(9, 4), 3u);
}

// ----- units -----

TEST(UnitsTest, EdgeTimesAreMonotonicAndDriftFree) {
  // 133 MHz has a non-integer picosecond period; ensure edge k is always
  // floor(k e12 / f) with no cumulative drift.
  const Frequency f = Frequency::MHz(133);
  EXPECT_EQ(f.EdgeTime(0), 0u);
  // After exactly 133e6 cycles, exactly one second must have elapsed.
  EXPECT_EQ(f.EdgeTime(133'000'000), kPicosecondsPerSecond);
  Picoseconds prev = 0;
  for (u64 k = 1; k < 1000; ++k) {
    const Picoseconds t = f.EdgeTime(k);
    EXPECT_GT(t, prev);
    // Each period is 7518 or 7519 ps — never drifts further.
    EXPECT_GE(t - prev, 7518u);
    EXPECT_LE(t - prev, 7519u);
    prev = t;
  }
}

TEST(UnitsTest, CyclesAtInvertsEdgeTime) {
  for (const u64 mhz : {6u, 24u, 40u, 133u}) {
    const Frequency f = Frequency::MHz(mhz);
    for (u64 k : {0ULL, 1ULL, 7ULL, 1000ULL, 123456ULL}) {
      EXPECT_EQ(f.CyclesAt(f.EdgeTime(k)), k) << mhz << " MHz, k=" << k;
      // Just before edge k+1 we are still in cycle k.
      EXPECT_EQ(f.CyclesAt(f.EdgeTime(k + 1) - 1), k);
    }
  }
}

TEST(UnitsTest, FourToOneClockRatioAligns) {
  // The IDEA platform: 24 MHz IMU, 6 MHz core — every 4th IMU edge
  // coincides exactly with a core edge.
  const Frequency imu = Frequency::MHz(24);
  const Frequency cp = Frequency::MHz(6);
  for (u64 k = 0; k < 100; ++k) {
    EXPECT_EQ(cp.EdgeTime(k), imu.EdgeTime(4 * k));
  }
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(Frequency::MHz(40).ToString(), "40 MHz");
  EXPECT_EQ(Frequency::KHz(500).ToString(), "500 kHz");
  EXPECT_DOUBLE_EQ(ToMilliseconds(1'000'000'000ULL), 1.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(2'000'000ULL), 2.0);
  EXPECT_EQ(FormatDuration(1'500'000'000ULL), "1.50 ms");
  EXPECT_EQ(FormatDuration(500ULL), "500 ps");
}

// ----- rng -----

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysBelow) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<u64> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  std::set<u64> seen;
  for (int i = 0; i < 200; ++i) {
    const u64 v = rng.NextInRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ----- logging -----

TEST(LogTest, SinkReceivesEnabledLevelsOnly) {
  std::vector<std::string> captured;
  Logger::Get().set_sink([&](LogLevel level, std::string_view msg) {
    captured.push_back(std::string(ToString(level)) + ":" +
                       std::string(msg));
  });
  Logger::Get().set_min_level(LogLevel::kInfo);
  VCOP_LOG(kDebug, "hidden");
  VCOP_LOG(kInfo, "shown");
  VCOP_LOG(kError, "loud");
  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kWarning);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "INFO:shown");
  EXPECT_EQ(captured[1], "ERROR:loud");
}

TEST(LogTest, DisabledLevelDoesNotEvaluateItsMessage) {
  // A debug line on a hot path (the IMU's per-fault one) must not
  // format its message while debug logging is off.
  int formatted = 0;
  auto message = [&formatted] {
    ++formatted;
    return std::string("formatted");
  };
  std::vector<std::string> captured;
  Logger::Get().set_sink([&](LogLevel, std::string_view msg) {
    captured.emplace_back(msg);
  });
  Logger::Get().set_min_level(LogLevel::kInfo);
  VCOP_LOG(kDebug, message());
  EXPECT_EQ(formatted, 0);
  EXPECT_TRUE(captured.empty());
  VCOP_LOG(kInfo, message());
  Logger::Get().set_sink(nullptr);
  Logger::Get().set_min_level(LogLevel::kWarning);
  EXPECT_EQ(formatted, 1);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "formatted");
}

// ----- table -----

TEST(TableTest, AlignsColumnsAndRightAlignsNumbers) {
  Table t({"name", "ms"});
  t.AddRow({"sw", "18.00"});
  t.AddRow({"vim", "11.25"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name  ms"), std::string::npos);
  EXPECT_NE(s.find("sw"), std::string::npos);
  // Numeric column is right-aligned to the header width.
  EXPECT_NE(s.find("18.00"), std::string::npos);
}

TEST(TableTest, TitleAndRuleRendered) {
  Table t({"a"});
  t.set_title("Figure 8");
  t.AddRow({"1"});
  const std::string s = t.ToString();
  EXPECT_EQ(s.find("Figure 8"), 0u);
  EXPECT_NE(s.find("-"), std::string::npos);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, ResultsAroundTheStackBufferAreWhole) {
  // A result that fits the 256-byte stack buffer is formatted once; a
  // longer one is formatted again into its string. Both come out whole.
  for (const usize length : {usize{254}, usize{255}, usize{256}, usize{257},
                             usize{1000}}) {
    const std::string text(length, 'a');
    const std::string out = StrFormat("<%s>", text.c_str());
    EXPECT_EQ(out, "<" + text + ">") << "length " << length;
  }
}

}  // namespace
}  // namespace vcop
