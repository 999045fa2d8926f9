// Tests for the synthesis estimator and the platform board files.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/platform_file.h"
#include "ucode/assembler.h"
#include "ucode/compiler.h"
#include "ucode/estimator.h"

namespace vcop {
namespace {

using ucode::Assemble;
using ucode::EstimateSynthesis;
using ucode::SynthesiseBitstream;

// ----- synthesis estimation -----

ucode::Program MustAssemble(const char* source, u32 params) {
  auto p = Assemble(source, params);
  VCOP_CHECK_MSG(p.ok(), p.status().ToString());
  return std::move(p).value();
}

TEST(EstimatorTest, MinimalProgramHasBaseCost) {
  const auto est = EstimateSynthesis(MustAssemble("halt\n", 0));
  EXPECT_GT(est.logic_elements, 1000u);  // sequencer + regfile + port
  EXPECT_FALSE(est.has_multiplier);
  EXPECT_FALSE(est.has_adder);
  EXPECT_EQ(est.microcode_bits, 64u);
  EXPECT_EQ(est.max_clock.hertz(), 66'000'000u);
}

TEST(EstimatorTest, MultiplierIsExpensiveAndSlow) {
  const auto plain =
      EstimateSynthesis(MustAssemble("add r1, r2, r3\nhalt\n", 0));
  const auto mul =
      EstimateSynthesis(MustAssemble("mul r1, r2, r3\nhalt\n", 0));
  EXPECT_GT(mul.logic_elements, plain.logic_elements + 400);
  EXPECT_LT(mul.max_clock.hertz(), plain.max_clock.hertz());
  EXPECT_TRUE(mul.has_multiplier);
}

TEST(EstimatorTest, StoreGrowsWithProgram) {
  std::string longer = "loadi r1, 1\n";
  for (int i = 0; i < 50; ++i) longer += "addi r1, r1, 1\n";
  longer += "halt\n";
  const auto small = EstimateSynthesis(MustAssemble("halt\n", 0));
  const auto big = EstimateSynthesis(MustAssemble(longer.c_str(), 0));
  EXPECT_GT(big.logic_elements, small.logic_elements);
  EXPECT_EQ(big.microcode_bits, 52u * 64);
}

TEST(EstimatorTest, SynthesiseClampsClockAndChecksFit) {
  ucode::Program mul_prog = MustAssemble("mul r1, r2, r3\nhalt\n", 0);
  // Requesting 40 MHz: clamped to the multiplier's 12 MHz.
  auto bs = SynthesiseBitstream("mulcore", mul_prog, Frequency::MHz(40),
                                /*pld_capacity_les=*/4160);
  ASSERT_TRUE(bs.ok()) << bs.status().ToString();
  EXPECT_EQ(bs.value().cp_clock.hertz(), 12'000'000u);

  // A tiny PLD rejects the design.
  auto too_small = SynthesiseBitstream("mulcore", mul_prog,
                                       Frequency::MHz(12), 500);
  ASSERT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.status().code(), ErrorCode::kResourceExhausted);
}

TEST(EstimatorTest, SynthesisedCoreActuallyRuns) {
  // End-to-end: compile an expression kernel, synthesise it, run it.
  ucode::MapKernelSpec spec;
  spec.name = "scaled-sum";
  spec.output = 1;
  spec.body = ucode::Expr::Shr(
      ucode::Expr::Input(0) + ucode::Expr::Param(1),
      ucode::Expr::Constant(1));
  auto program = ucode::CompileMapKernel(spec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto bs = SynthesiseBitstream("scaled-sum", program.value(),
                                Frequency::MHz(40), 4160);
  ASSERT_TRUE(bs.ok()) << bs.status().ToString();
  // Shifter-limited: 40 MHz granted? shifter max is 50 -> 40 stands.
  EXPECT_EQ(bs.value().cp_clock.hertz(), 40'000'000u);

  runtime::FpgaSystem sys(runtime::Epxa1Config());
  ASSERT_TRUE(sys.Load(bs.value()).ok());
  const u32 n = 128;
  auto in = sys.Allocate<u32>(n);
  auto out = sys.Allocate<u32>(n);
  ASSERT_TRUE(in.ok() && out.ok());
  for (u32 i = 0; i < n; ++i) in.value().view()[i] = i * 10;
  ASSERT_TRUE(sys.Map(0, in.value(), os::Direction::kIn).ok());
  ASSERT_TRUE(sys.Map(1, out.value(), os::Direction::kOut).ok());
  auto report = sys.Execute({n, 6u});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (u32 i = 0; i < n; ++i) {
    ASSERT_EQ(out.value().view()[i], (i * 10 + 6) >> 1) << i;
  }
}

// ----- platform board files -----

TEST(PlatformFileTest, DefaultsAreEpxa1) {
  auto config = runtime::ParsePlatformFile("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().dp_ram_bytes, 16u * 1024);
  EXPECT_EQ(config.value().platform_name, "EPXA1");
  EXPECT_EQ(config.value().vim.policy, os::PolicyKind::kWsFifo);
}

TEST(PlatformFileTest, ParsesFullDescription) {
  const char* text = R"(
; my custom board
name = MYBOARD
dp_ram_kb = 64
page_size = 4096
tlb_entries = 16
cpu_mhz = 200        # faster ARM
imu_latency = 3
pipelined = true
posted_writes = yes
pld_les = 16640
policy = lru
copy_mode = dma
prefetch = clean
service_ring = 128
service_rate = 5000
service_burst = 32
)";
  auto config = runtime::ParsePlatformFile(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const os::KernelConfig& c = config.value();
  EXPECT_EQ(c.platform_name, "MYBOARD");
  EXPECT_EQ(c.dp_ram_bytes, 64u * 1024);
  EXPECT_EQ(c.page_bytes, 4u * 1024);
  EXPECT_EQ(c.tlb_entries, 16u);
  EXPECT_EQ(c.costs.cpu_clock.hertz(), 200'000'000u);
  EXPECT_EQ(c.imu_access_latency, 3u);
  EXPECT_TRUE(c.imu_pipelined);
  EXPECT_TRUE(c.imu_posted_writes);
  EXPECT_EQ(c.pld_capacity_les, 16640u);
  EXPECT_EQ(c.vim.policy, os::PolicyKind::kLru);
  EXPECT_EQ(c.vim.copy_mode, mem::CopyMode::kDma);
  EXPECT_EQ(c.vim.prefetch, os::PrefetchKind::kClean);
  EXPECT_EQ(c.service.ring_entries, 128u);
  EXPECT_EQ(c.service.admit_rate, 5000u);
  EXPECT_EQ(c.service.admit_burst, 32u);
}

TEST(PlatformFileTest, BadServiceValuesRejected) {
  // Ring sizes are virtio-style: power of two, within the u16 index
  // space's half.
  EXPECT_FALSE(runtime::ParsePlatformFile("service_ring = 24\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("service_ring = 1\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("service_ring = 65536\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("service_burst = 0\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("service_rate = lots\n").ok());
}

TEST(PlatformFileTest, IommuIsOffByDefaultAndBadValuesNameTheKey) {
  // The IOMMU is one of the four transfer modes: with no `copy_mode`
  // line the board runs the paper's double copy (DESIGN.md §13).
  auto defaults = runtime::ParsePlatformFile("");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().vim.copy_mode, mem::CopyMode::kDoubleCopy);
  auto on = runtime::ParsePlatformFile("copy_mode = IOMMU\n");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(on.value().vim.copy_mode, mem::CopyMode::kIommu);

  // Rejections carry the line and the key, and list every mode.
  auto bad = runtime::ParsePlatformFile("name = X\ncopy_mode = zero\n");
  ASSERT_FALSE(bad.ok());
  for (const char* part : {"line 2", "copy_mode", "double|single|dma|iommu"}) {
    EXPECT_NE(bad.status().message().find(part), std::string::npos)
        << bad.status().message();
  }
}

TEST(PlatformFileTest, ReconfigKeysDefaultOffAndRoundTrip) {
  // Strictly opt-in (DESIGN.md §15): without the key the seed
  // artifacts must be untouched.
  auto defaults = runtime::ParsePlatformFile("");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().config_slots, 1u);

  auto config = runtime::ParsePlatformFile("config_slots = 4\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().config_slots, 4u);

  os::KernelConfig original = runtime::Epxa1Config();
  original.config_slots = 3;
  auto parsed = runtime::ParsePlatformFile(runtime::WritePlatformFile(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().config_slots, original.config_slots);
}

TEST(PlatformFileTest, BadReconfigValuesAreRejectedByName) {
  // A slot count of zero would leave the fabric with nowhere to
  // configure; the cap matches the documented bound.
  for (const char* text : {"config_slots = 0\n", "config_slots = 65\n",
                           "config_slots = lots\n"}) {
    auto bad = runtime::ParsePlatformFile(text);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_NE(bad.status().message().find("config_slots"), std::string::npos)
        << bad.status().message();
  }
}

TEST(PlatformFileTest, ParsesEveryPrefetchKind) {
  struct Case {
    const char* value;
    os::PrefetchKind kind;
  };
  for (const Case c : {Case{"none", os::PrefetchKind::kNone},
                       Case{"clean", os::PrefetchKind::kClean}}) {
    auto config = runtime::ParsePlatformFile(
        std::string("prefetch = ") + c.value + "\n");
    ASSERT_TRUE(config.ok()) << c.value;
    EXPECT_EQ(config.value().vim.prefetch, c.kind) << c.value;
  }
}

TEST(PlatformFileTest, UnknownPrefetchKindRejectedClearly) {
  // `sequential` and `adaptive` are not values: a board file naming one
  // fails like any other bad value.
  for (const char* value : {"psychic", "stride", "sequential", "adaptive"}) {
    auto config = runtime::ParsePlatformFile(
        std::string("name = X\nprefetch = ") + value + "\n");
    ASSERT_FALSE(config.ok()) << value;
    EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
        << config.status().message();
    EXPECT_NE(config.status().message().find("prefetch must be none|clean"),
              std::string::npos)
        << config.status().message();
  }
}

TEST(PlatformFileTest, UnknownKeyRejectedWithLine) {
  for (const char* line :
       {"dp_ram_mb = 4", "victim_tlb_entries = 4", "lazy_writeback = on",
        "design_affinity = on", "fastforward = on", "l1_tlb_entries = 2",
        "l2_tlb_entries = 6", "page_kb = 2", "coalesce_writeback = on",
        "iommu = on", "iotlb_entries = 16", "overlap = true",
        "bounds_check = on", "prefetch" "_depth = 2"}) {
    const std::string key(line, std::string_view(line).find(' '));
    auto config = runtime::ParsePlatformFile(std::string("name = X\n") +
                                             line + "\n");
    ASSERT_FALSE(config.ok()) << line;
    EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
        << config.status().message();
    EXPECT_NE(config.status().message().find("unknown key '" + key + "'"),
              std::string::npos)
        << config.status().message();
  }
}

TEST(PlatformFileTest, BadValuesRejected) {
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size = 3072\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("pipelined = maybe\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("policy = mru\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("cpu_mhz = fast\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("imu_latency = 1\n").ok());
  // Non-integral page count.
  EXPECT_FALSE(
      runtime::ParsePlatformFile("dp_ram_kb = 3\npage_size = 2048\n").ok());
  // Integers past u64 must not wrap into range: these read as 4 TLB
  // entries and a 16 KB DP-RAM if the parser ignores overflow.
  struct Overflow {
    const char* text;
    const char* key;
  };
  for (const Overflow o :
       {Overflow{"tlb_entries = 18446744073709551620\n", "tlb_entries"},
        Overflow{"dp_ram_kb = 18446744073709551632\n", "dp_ram_kb"}}) {
    auto config = runtime::ParsePlatformFile(o.text);
    ASSERT_FALSE(config.ok()) << o.text;
    EXPECT_NE(config.status().message().find(std::string("'") + o.key +
                                             "' must be an integer in"),
              std::string::npos)
        << config.status().message();
  }
}

TEST(PlatformFileTest, ParsesFlexibleMemoryKeys) {
  auto config = runtime::ParsePlatformFile(
      "page_size = 1024\n"
      "page_size_obj0 = 4096\n"
      "page_size_obj14 = 512\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const os::KernelConfig& c = config.value();
  EXPECT_EQ(c.page_bytes, 1024u);
  EXPECT_EQ(c.object_page_bytes[0], 4096u);
  EXPECT_EQ(c.object_page_bytes[14], 512u);
  EXPECT_EQ(c.object_page_bytes[1], 0u);  // untouched = platform default
}

TEST(PlatformFileTest, FlexibleMemoryDefaultsAreOff) {
  // With no new keys the seed configuration must be untouched: platform
  // pages, no per-object overrides.
  auto config = runtime::ParsePlatformFile("");
  ASSERT_TRUE(config.ok());
  for (u32 id = 0; id < hw::kMaxObjects; ++id) {
    EXPECT_EQ(config.value().object_page_bytes[id], 0u);
  }
}

TEST(PlatformFileTest, BadFlexibleMemoryValuesRejectedByName) {
  // Rejection messages name the offending key.
  auto bad_pow2 = runtime::ParsePlatformFile("page_size = 3000\n");
  ASSERT_FALSE(bad_pow2.ok());
  EXPECT_NE(bad_pow2.status().ToString().find("page_size"),
            std::string::npos);
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size = 256\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size = 131072\n").ok());
  // Per-object overrides: power of two in [512, 8192], real object ids
  // only (15 is the parameter page; 16+ is out of range).
  auto bad_obj = runtime::ParsePlatformFile("page_size_obj3 = 3000\n");
  ASSERT_FALSE(bad_obj.ok());
  EXPECT_NE(bad_obj.status().ToString().find("page_size_obj3"),
            std::string::npos);
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size_obj0 = 256\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size_obj0 = 16384\n").ok());
  auto param = runtime::ParsePlatformFile("page_size_obj15 = 2048\n");
  ASSERT_FALSE(param.ok());
  EXPECT_NE(param.status().ToString().find("reserved"), std::string::npos);
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size_obj16 = 2048\n").ok());
  EXPECT_FALSE(runtime::ParsePlatformFile("page_size_objx = 2048\n").ok());
}

TEST(PlatformFileTest, FlexibleMemoryKeysRoundTripThroughWriter) {
  os::KernelConfig original = runtime::Epxa1Config();
  original.page_bytes = 1024;
  original.object_page_bytes[0] = 4096;
  original.object_page_bytes[7] = 512;
  const std::string text = runtime::WritePlatformFile(original);
  auto parsed = runtime::ParsePlatformFile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().page_bytes, original.page_bytes);
  EXPECT_EQ(parsed.value().object_page_bytes, original.object_page_bytes);
}

TEST(PlatformFileTest, RoundTripsThroughWriter) {
  os::KernelConfig original = runtime::Epxa4Config();
  // The parser takes any name bytes but newline and comment markers; a
  // leading NUL must not make the writer emit an empty name.
  original.platform_name = std::string("\0EPXA4", 6);
  original.vim.policy = os::PolicyKind::kRandom;
  original.vim.copy_mode = mem::CopyMode::kIommu;
  original.imu_pipelined = true;
  original.vim.prefetch = os::PrefetchKind::kClean;
  original.service.ring_entries = 256;
  original.service.admit_rate = 1234;
  original.service.admit_burst = 7;
  const std::string text = runtime::WritePlatformFile(original);
  auto parsed = runtime::ParsePlatformFile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().platform_name, original.platform_name);
  EXPECT_EQ(parsed.value().dp_ram_bytes, original.dp_ram_bytes);
  EXPECT_EQ(parsed.value().tlb_entries, original.tlb_entries);
  EXPECT_EQ(parsed.value().vim.policy, original.vim.policy);
  EXPECT_EQ(parsed.value().vim.copy_mode, original.vim.copy_mode);
  EXPECT_EQ(parsed.value().imu_pipelined, original.imu_pipelined);
  EXPECT_EQ(parsed.value().vim.prefetch, original.vim.prefetch);
  EXPECT_EQ(parsed.value().service.ring_entries,
            original.service.ring_entries);
  EXPECT_EQ(parsed.value().service.admit_rate, original.service.admit_rate);
  EXPECT_EQ(parsed.value().service.admit_burst,
            original.service.admit_burst);
}

// ----- platform-file properties (seeded, like ucode_fuzz_test) -----

u32 RandomPowerOfTwo(Rng& rng, u32 lo_log2, u32 hi_log2) {
  return 1u << rng.NextInRange(lo_log2, hi_log2);
}

bool RandomBool(Rng& rng) { return rng.NextBelow(2) == 1; }

/// A config drawn from within every key's accepted range, so the writer's
/// text for it must parse.
os::KernelConfig RandomPlatform(Rng& rng) {
  static constexpr char kNameChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
  os::KernelConfig c = runtime::Epxa1Config();
  c.platform_name.clear();
  const u64 name_len = rng.NextInRange(1, 12);
  for (u64 i = 0; i < name_len; ++i) {
    c.platform_name += kNameChars[rng.NextBelow(sizeof(kNameChars) - 1)];
  }
  c.page_bytes = RandomPowerOfTwo(rng, 9, 16);
  // dp_ram_kb is written in whole KB and must hold whole pages.
  const u32 unit_kb = c.page_bytes < 1024 ? 1 : c.page_bytes / 1024;
  c.dp_ram_bytes =
      static_cast<u32>(rng.NextInRange(1, 65536 / unit_kb)) * unit_kb * 1024;
  for (u32 id = 0; id < hw::kMaxObjects; ++id) {
    if (id != hw::kParamObject && rng.NextBelow(4) == 0) {
      // [mem::kMinObjectPageBytes, mem::kMaxObjectPageBytes]
      c.object_page_bytes[id] = RandomPowerOfTwo(rng, 9, 13);
    }
  }
  c.tlb_entries = static_cast<u32>(rng.NextInRange(1, 1024));
  c.costs.cpu_clock = Frequency::MHz(rng.NextInRange(1, 10'000));
  c.imu_access_latency = static_cast<u32>(rng.NextInRange(2, 64));
  c.imu_pipelined = RandomBool(rng);
  c.imu_posted_writes = RandomBool(rng);
  c.pld_capacity_les = static_cast<u32>(rng.NextInRange(100, 1 << 24));
  constexpr os::PolicyKind kPolicies[] = {
      os::PolicyKind::kFifo, os::PolicyKind::kLru, os::PolicyKind::kRandom,
      os::PolicyKind::kWsFifo};
  c.vim.policy = kPolicies[rng.NextBelow(std::size(kPolicies))];
  constexpr mem::CopyMode kCopyModes[] = {
      mem::CopyMode::kDoubleCopy, mem::CopyMode::kSingleCopy,
      mem::CopyMode::kDma, mem::CopyMode::kIommu};
  c.vim.copy_mode = kCopyModes[rng.NextBelow(std::size(kCopyModes))];
  c.vim.prefetch =
      RandomBool(rng) ? os::PrefetchKind::kClean : os::PrefetchKind::kNone;
  c.service.ring_entries = RandomPowerOfTwo(rng, 1, 15);
  c.service.admit_rate = rng.NextInRange(0, 1'000'000'000);
  c.service.admit_burst = static_cast<u32>(rng.NextInRange(1, 1 << 20));
  c.config_slots = static_cast<u32>(rng.NextInRange(1, 64));
  return c;
}

TEST(PlatformFileTest, RandomConfigsRoundTripByteForByte) {
  for (u64 seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::string text = runtime::WritePlatformFile(RandomPlatform(rng));
    const Result<os::KernelConfig> parsed = runtime::ParsePlatformFile(text);
    ASSERT_TRUE(parsed.ok())
        << "seed " << seed << ": " << parsed.status().ToString() << "\n"
        << text;
    EXPECT_EQ(runtime::WritePlatformFile(parsed.value()), text)
        << "seed " << seed;
  }
}

/// A `key = value` line that is often almost right: a real key (or a
/// near miss) with a value of the wrong kind, out of range, or valid.
std::string RandomKeyValueLine(Rng& rng) {
  static constexpr const char* kKeys[] = {
      "name", "dp_ram_kb", "page_size", "tlb_entries", "cpu_mhz",
      "imu_latency", "pipelined", "posted_writes", "pld_les", "policy",
      "copy_mode", "prefetch", "service_ring", "service_rate",
      "service_burst", "config_slots", "page_size_obj3",
      // Near misses: the parameter object, no id, an id out of range,
      // removed keys, upper case, an inner space.
      "page_size_obj15", "page_size_obj", "page_size_obj99", "fastforward",
      "coalesce_writeback", "iommu", "iotlb_entries", "overlap",
      "bounds_check", "NAME", "tlb entries"};
  static constexpr const char* kValues[] = {
      "0", "1", "2", "3", "512", "1024", "4096", "65536", "65537", "-1",
      "on", "off", "maybe", "lru", "wsfifo", "dma", "iommu", "clean",
      "adaptive", "",
      "18446744073709551616", "4294967296", "1e3", " 7 ", "x=y"};
  std::string line = kKeys[rng.NextBelow(std::size(kKeys))];
  line += rng.NextBelow(8) == 0 ? " " : " = ";
  line += kValues[rng.NextBelow(std::size(kValues))];
  return line;
}

/// Byte flips, truncations, duplicated lines and random `key = value`
/// lines never abort the parser. A rejection is a clean InvalidArgument
/// that names its line, or the one file-level check (dp_ram_kb must
/// hold whole pages); an accepted file still round-trips through the
/// writer.
TEST(PlatformFileTest, MutatedFilesFailCleanlyOrRoundTrip) {
  u32 rejected = 0;
  u32 accepted = 0;
  for (u64 seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed * 7919 + 3);
    std::string text = runtime::WritePlatformFile(RandomPlatform(rng));
    const u64 mutations = rng.NextInRange(1, 4);
    for (u64 m = 0; m < mutations; ++m) {
      const usize pos = text.empty() ? 0 : rng.NextBelow(text.size());
      switch (rng.NextBelow(4)) {
        case 0:  // flip a byte to anything, newline and NUL included
          if (!text.empty()) text[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:  // truncate
          text.resize(pos);
          break;
        case 2: {  // duplicate the line containing pos
          const usize begin = text.rfind('\n', pos);
          const usize line_begin = begin == std::string::npos ? 0 : begin + 1;
          const usize end = text.find('\n', pos);
          const usize line_end = end == std::string::npos ? text.size() : end;
          text.insert(line_begin, text.substr(line_begin,
                                              line_end - line_begin) + "\n");
          break;
        }
        default:  // insert a random key = value line at a line start
          const usize begin = text.rfind('\n', pos);
          text.insert(begin == std::string::npos ? 0 : begin + 1,
                      RandomKeyValueLine(rng) + "\n");
          break;
      }
    }
    const Result<os::KernelConfig> parsed = runtime::ParsePlatformFile(text);
    if (!parsed.ok()) {
      ++rejected;
      const std::string& message = parsed.status().message();
      EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument)
          << "seed " << seed << ": " << message;
      EXPECT_TRUE(message.rfind("platform file line ", 0) == 0 ||
                  message.find("dp_ram_kb") != std::string::npos)
          << "seed " << seed << ": " << message;
      continue;
    }
    ++accepted;
    const std::string written = runtime::WritePlatformFile(parsed.value());
    const Result<os::KernelConfig> reparsed =
        runtime::ParsePlatformFile(written);
    ASSERT_TRUE(reparsed.ok())
        << "seed " << seed << ": " << reparsed.status().ToString();
    EXPECT_EQ(runtime::WritePlatformFile(reparsed.value()), written)
        << "seed " << seed;
  }
  // Both outcomes must be common, or the mutator is not exercising the
  // parser.
  EXPECT_GT(rejected, 200u);
  EXPECT_GT(accepted, 100u);
  RecordProperty("rejected", static_cast<int>(rejected));
  RecordProperty("accepted", static_cast<int>(accepted));
}

TEST(PlatformFileTest, ParsedPlatformRunsApplications) {
  auto config = runtime::ParsePlatformFile(
      "name = TEST\ndp_ram_kb = 32\ntlb_entries = 16\npolicy = lru\n");
  ASSERT_TRUE(config.ok());
  runtime::FpgaSystem sys(config.value());
  const std::vector<u32> a(500, 3), b(500, 4);
  auto run = runtime::RunVecAddVim(sys, a, b);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output[499], 7u);
}

}  // namespace
}  // namespace vcop
