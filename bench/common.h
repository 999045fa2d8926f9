// Shared helpers for the bench binaries: one function per (application,
// platform-config, size) measurement point, returning both the VIM
// execution report and the software-model baseline so every bench
// prints consistent numbers.
#pragma once

#include <chrono>
#include <numeric>
#include <string>
#include <vector>

#include "apps/sw_model.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/table.h"
#include "cp/adpcm_cp.h"
#include "cp/idea_cp.h"
#include "os/kernel.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"

namespace vcop::bench {

inline constexpr u64 kWorkloadSeed = 20040216;  // DATE'04 week, Paris

/// Monotonic wall-clock timer for host-side measurements. Always
/// steady_clock: system_clock can be slewed by NTP mid-run, which
/// silently corrupts speedup ratios.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct WallMeasurement {
  double warmup_ms = 0.0;  // first run: cold allocator, cold caches
  double best_ms = 0.0;    // fastest of the post-warm-up repeats
  int repeats = 0;
};

/// Times fn() once as warm-up and then `repeats` more times, keeping
/// the fastest. The warm-up run is reported separately, never mixed
/// into best_ms (with repeats == 0, best_ms falls back to the warm-up
/// time so callers always get a usable number).
template <typename Fn>
WallMeasurement MeasureWall(int repeats, Fn&& fn) {
  WallMeasurement m;
  m.repeats = repeats;
  WallTimer timer;
  fn();
  m.warmup_ms = timer.ElapsedMs();
  m.best_ms = m.warmup_ms;
  for (int i = 0; i < repeats; ++i) {
    timer.Reset();
    fn();
    const double ms = timer.ElapsedMs();
    if (i == 0 || ms < m.best_ms) m.best_ms = ms;
  }
  return m;
}

struct Point {
  usize input_bytes = 0;
  Picoseconds sw = 0;               // pure-software baseline
  os::ExecutionReport vim;          // VIM-based coprocessor
  bool manual_fits = false;         // IDEA only: normal coprocessor ran
  runtime::ManualRunResult manual;  // valid when manual_fits
};

/// Runs adpcmdecode at `input_bytes` on a fresh system with `config`;
/// verifies bit-exactness against the reference as it goes.
inline Point RunAdpcmPoint(const os::KernelConfig& config,
                           usize input_bytes) {
  Point point;
  point.input_bytes = input_bytes;

  const std::vector<u8> input =
      apps::MakeAdpcmStream(input_bytes, kWorkloadSeed);
  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  point.sw = arm.AdpcmDecodeTime(input_bytes);

  runtime::FpgaSystem sys(config);
  auto run = runtime::RunAdpcmVim(sys, input);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);
  VCOP_CHECK_MSG(run.value().output == expect,
                 "adpcm coprocessor output mismatch");
  point.vim = run.value().report;
  // End-of-run audit: anything still queued must drain without ticking
  // another clock edge (the run aborts otherwise).
  sys.kernel().simulator().DrainAssertQuiescent();
  return point;
}

/// Runs IDEA at `input_bytes`: software, VIM, and the manual "normal
/// coprocessor" (which may fail to fit).
inline Point RunIdeaPoint(const os::KernelConfig& config,
                          usize input_bytes) {
  Point point;
  point.input_bytes = input_bytes;

  const apps::IdeaSubkeys keys =
      apps::IdeaExpandKey(apps::MakeIdeaKey(kWorkloadSeed));
  const std::vector<u8> input =
      apps::MakeRandomBytes(input_bytes, kWorkloadSeed + 1);
  std::vector<u8> expect(input.size());
  apps::IdeaCryptEcb(keys, input, expect);

  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  point.sw = arm.IdeaEcbTime(input_bytes);

  runtime::FpgaSystem sys(config);
  auto vim = runtime::RunIdeaVim(sys, keys, input);
  VCOP_CHECK_MSG(vim.ok(), vim.status().ToString());
  VCOP_CHECK_MSG(vim.value().output == expect,
                 "IDEA coprocessor output mismatch");
  point.vim = vim.value().report;

  auto manual = runtime::RunIdeaManual(config.costs, config.dp_ram_bytes,
                                       keys, input);
  if (manual.ok()) {
    VCOP_CHECK_MSG(manual.value().output == expect,
                   "manual IDEA output mismatch");
    point.manual_fits = true;
    point.manual = manual.value().result;
  }
  sys.kernel().simulator().DrainAssertQuiescent();
  return point;
}

/// Runs the gather stressor at `elements` words on a fresh system with
/// `config`: a random input gathered through a seeded random
/// permutation, so the in, perm and out objects are elements * 4 bytes
/// each. Verifies every output word.
inline os::ExecutionReport RunGatherReport(const os::KernelConfig& config,
                                           u32 elements, u64 seed) {
  Rng rng(seed);
  std::vector<u32> in(elements);
  for (u32& v : in) v = static_cast<u32>(rng.Next());
  std::vector<u32> perm(elements);
  std::iota(perm.begin(), perm.end(), 0u);
  for (u32 i = elements - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  }
  runtime::FpgaSystem sys(config);
  auto run = runtime::RunGatherVim(sys, in, perm);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  for (u32 i = 0; i < elements; ++i) {
    VCOP_CHECK(run.value().output[i] == in[perm[i]]);
  }
  return run.value().report;
}

// ----- shared multi-tenant staging (vcopd benches) -----
//
// The vcopd benches register tenants that run adpcm or IDEA against a
// software reference; the buffer allocation, input synthesis, expected
// output, and object mapping are identical and live here once.

/// An adpcm tenant's buffers and reference expectation.
struct StagedAdpcm {
  runtime::HostBuffer<u8> in;
  runtime::HostBuffer<i16> out;
  std::vector<i16> expect;
};

/// Allocates and fills an adpcm input stream of `bytes`, allocates the
/// output, computes the software reference, and maps both objects
/// through `client`.
inline StagedAdpcm StageAdpcmTenant(runtime::FpgaSystem& sys,
                                    runtime::VcopdClient& client, u32 bytes,
                                    u64 seed) {
  StagedAdpcm s;
  const std::vector<u8> input = apps::MakeAdpcmStream(bytes, seed);
  s.in = sys.Allocate<u8>(bytes).value();
  s.in.Fill(input);
  s.out = sys.Allocate<i16>(bytes * 2).value();
  s.expect.resize(bytes * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, s.expect, state);
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjIn, s.in,
                        os::Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::AdpcmDecodeCoprocessor::kObjOut, s.out,
                        os::Direction::kOut).ok());
  return s;
}

/// An IDEA tenant's buffers and reference expectation.
struct StagedIdea {
  runtime::HostBuffer<u8> in;
  runtime::HostBuffer<u8> out;
  runtime::HostBuffer<u16> key;
  std::vector<u8> expect;
};

/// As StageAdpcmTenant, for IDEA ECB: input, output, expanded key, and
/// the three object mappings.
inline StagedIdea StageIdeaTenant(runtime::FpgaSystem& sys,
                                  runtime::VcopdClient& client, u32 bytes,
                                  u64 seed) {
  StagedIdea s;
  const apps::IdeaSubkeys keys = apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
  const std::vector<u8> input = apps::MakeRandomBytes(bytes, seed + 1);
  s.expect.resize(bytes);
  apps::IdeaCryptEcb(keys, input, s.expect);
  s.in = sys.Allocate<u8>(bytes).value();
  s.in.Fill(input);
  s.out = sys.Allocate<u8>(bytes).value();
  s.key = sys.Allocate<u16>(static_cast<u32>(keys.size())).value();
  s.key.Fill(std::span<const u16>(keys.data(), keys.size()));
  VCOP_CHECK(client.Map(cp::IdeaCoprocessor::kObjIn, s.in,
                        /*elem_width=*/4, os::Direction::kIn).ok());
  VCOP_CHECK(client.Map(cp::IdeaCoprocessor::kObjOut, s.out,
                        /*elem_width=*/4, os::Direction::kOut).ok());
  VCOP_CHECK(client.Map(cp::IdeaCoprocessor::kObjKey, s.key,
                        os::Direction::kIn).ok());
  return s;
}

/// "8 KB" / "512 B" labels for size columns.
inline std::string SizeLabel(usize bytes) {
  if (bytes % 1024 == 0) return StrFormat("%zu KB", bytes / 1024);
  return StrFormat("%zu B", bytes);
}

}  // namespace vcop::bench
