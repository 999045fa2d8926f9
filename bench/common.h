// The harness the bench binaries and the vcopd tests share: one stager
// per application (seeded inputs, software reference, object mappings,
// bit-stream, FPGA_EXECUTE parameters and the exactness check), one
// single-run point runner, one vcopd fleet runner and the two trace
// artifacts. Every bench keeps its own sizes, gates, tables and JSON.
#pragma once

#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/sw_model.h"
#include "apps/workloads.h"
#include "base/status.h"
#include "base/table.h"
#include "cp/adpcm_cp.h"
#include "cp/conv_cp.h"
#include "cp/gather_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"
#include "os/kernel.h"
#include "os/vcopd.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"
#include "sim/trace.h"

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

/// "8 KB" / "512 B" labels for size columns.
inline std::string SizeLabel(usize bytes) {
  if (bytes % 1024 == 0) return StrFormat("%zu KB", bytes / 1024);
  return StrFormat("%zu B", bytes);
}

// ----- one stager per application -----

enum class App : u8 { kAdpcm, kIdea, kVecAdd, kConv, kGather };

inline const char* AppName(App app) {
  switch (app) {
    case App::kAdpcm: return "adpcm";
    case App::kIdea: return "idea";
    case App::kVecAdd: return "vecadd";
    case App::kConv: return "conv2d";
    case App::kGather: return "gather";
  }
  return "?";
}

/// Default conv2d image width; the height is input_bytes / width.
inline constexpr u32 kConvWidth = 64;

/// One object of a job: its FPGA_MAP_OBJECT arguments and initial bytes
/// (zeros for the output).
struct JobObject {
  hw::ObjectId id = 0;
  u32 elem_width = 1;
  os::Direction direction = os::Direction::kIn;
  std::vector<u8> bytes;
};

/// One job's host side, fixed by (app, input size, seed).
struct Job {
  App app = App::kAdpcm;
  u32 input_bytes = 0;
  hw::Bitstream bitstream;
  std::vector<u32> params;         // FPGA_EXECUTE parameters
  std::vector<JobObject> objects;  // allocation and mapping order
  hw::ObjectId output = 0;         // the object the check reads
  std::vector<u8> expect;          // software reference output
};

template <typename T>
std::vector<u8> AsBytes(std::span<const T> values) {
  std::vector<u8> bytes(values.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

/// Builds the job for `app` over `input_bytes` of seeded input: adpcm's
/// compressed stream, IDEA's plaintext (ECB), one vecadd or gather
/// operand, or a conv2d image `conv_width` pixels wide (box blur,
/// shift 3).
inline Job MakeJob(App app, u32 input_bytes, u64 seed,
                   u32 conv_width = kConvWidth) {
  Job job;
  job.app = app;
  job.input_bytes = input_bytes;
  auto add = [&job](hw::ObjectId id, u32 elem_width, os::Direction direction,
                    std::vector<u8> bytes) {
    job.objects.push_back({id, elem_width, direction, std::move(bytes)});
  };
  auto add_output = [&](hw::ObjectId id, u32 elem_width) {
    job.output = id;
    add(id, elem_width, os::Direction::kOut,
        std::vector<u8>(job.expect.size()));
  };
  switch (app) {
    case App::kAdpcm: {
      using Cp = cp::AdpcmDecodeCoprocessor;
      const std::vector<u8> input = apps::MakeAdpcmStream(input_bytes, seed);
      std::vector<i16> expect(input.size() * 2);
      apps::AdpcmState state;
      apps::AdpcmDecode(input, expect, state);
      job.expect = AsBytes(std::span<const i16>(expect));
      job.bitstream = cp::AdpcmDecodeBitstream();
      job.params = {input_bytes, 0u, 0u};  // fresh predictor state
      add(Cp::kObjIn, 1, os::Direction::kIn, input);
      add_output(Cp::kObjOut, 2);
      break;
    }
    case App::kIdea: {
      using Cp = cp::IdeaCoprocessor;
      const apps::IdeaSubkeys keys =
          apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
      const std::vector<u8> input = apps::MakeRandomBytes(input_bytes,
                                                          seed + 1);
      job.expect.resize(input.size());
      apps::IdeaCryptEcb(keys, input, job.expect);
      job.bitstream = cp::IdeaBitstream();
      job.params = {static_cast<u32>(input_bytes / apps::kIdeaBlockBytes),
                    Cp::kModeEcb, 0u, 0u};
      // The core addresses the byte streams as 32-bit elements.
      add(Cp::kObjIn, 4, os::Direction::kIn, input);
      add_output(Cp::kObjOut, 4);
      add(Cp::kObjKey, 2, os::Direction::kIn,
          AsBytes(std::span<const u16>(keys)));
      break;
    }
    case App::kVecAdd: {
      using Cp = cp::VecAddCoprocessor;
      const u32 n = input_bytes / static_cast<u32>(sizeof(u32));
      std::vector<u32> a(n), b(n), c(n);
      for (u32 i = 0; i < n; ++i) {
        a[i] = static_cast<u32>(seed) * 1000003u + i;
        b[i] = static_cast<u32>(seed) * 7919u + 3u * i;
        c[i] = a[i] + b[i];
      }
      job.expect = AsBytes(std::span<const u32>(c));
      job.bitstream = cp::VecAddBitstream();
      job.params = {n};
      add(Cp::kObjA, 4, os::Direction::kIn, AsBytes(std::span<const u32>(a)));
      add(Cp::kObjB, 4, os::Direction::kIn, AsBytes(std::span<const u32>(b)));
      add_output(Cp::kObjC, 4);
      break;
    }
    case App::kConv: {
      using Cp = cp::Conv3x3Coprocessor;
      constexpr u32 kShift = 3;  // box blur: sum 9, >> 3
      const u32 height = input_bytes / conv_width;
      const std::vector<u8> image =
          apps::MakeTestImage(conv_width, height, seed);
      const apps::Conv3x3Kernel kernel = apps::BoxBlurKernel();
      job.expect.resize(image.size());
      apps::Convolve3x3(image, conv_width, height, kernel, kShift,
                        job.expect);
      std::vector<u32> coeffs(kernel.size());
      for (usize i = 0; i < kernel.size(); ++i) {
        coeffs[i] = static_cast<u32>(kernel[i]);
      }
      job.bitstream = cp::Conv3x3Bitstream();
      job.params = {conv_width, height, kShift};
      add(Cp::kObjSrc, 1, os::Direction::kIn, image);
      add_output(Cp::kObjDst, 1);
      add(Cp::kObjKernel, 4, os::Direction::kIn,
          AsBytes(std::span<const u32>(coeffs)));
      break;
    }
    case App::kGather: {
      using Cp = cp::GatherCoprocessor;
      const u32 n = input_bytes / static_cast<u32>(sizeof(u32));
      const apps::GatherInput g = apps::MakeRandomGather(n, seed);
      std::vector<u32> out(n);
      for (u32 i = 0; i < n; ++i) out[i] = g.in[g.perm[i]];
      job.expect = AsBytes(std::span<const u32>(out));
      job.bitstream = cp::GatherBitstream();
      job.params = {n};
      add(Cp::kObjIn, 4, os::Direction::kIn,
          AsBytes(std::span<const u32>(g.in)));
      add(Cp::kObjPerm, 4, os::Direction::kIn,
          AsBytes(std::span<const u32>(g.perm)));
      add_output(Cp::kObjOut, 4);
      break;
    }
  }
  return job;
}

/// A job placed in a system's user memory and mapped into one owner's
/// object table: a vcopd tenant, or the kernel's default space
/// (tenant 0).
struct StagedJob {
  Job job;
  os::TenantId tenant = 0;
  runtime::HostBuffer<u8> out;  // the output object, as raw bytes

  /// The one exactness check: the output object holds the software
  /// reference, byte for byte.
  bool Exact() const { return out.ToVector() == job.expect; }
  /// Zeroes the output object, so the next run must write every byte.
  void ClearOutput() { out.Fill(std::vector<u8>(out.size())); }
  /// Queues one run of the job on its tenant.
  Result<os::Ticket> Submit(
      os::Vcopd& daemon,
      std::function<void(const os::JobResult&)> on_complete = nullptr) const {
    return daemon.Submit(tenant, job.bitstream, job.params,
                         std::move(on_complete));
  }
};

/// Allocates and fills the job's objects, then maps each through `daemon`
/// for `tenant` (or, with no daemon, into the kernel's default space).
inline StagedJob PlaceJob(runtime::FpgaSystem& sys, os::Vcopd* daemon,
                          os::TenantId tenant, Job job) {
  StagedJob staged;
  staged.tenant = tenant;
  for (const JobObject& o : job.objects) {
    runtime::HostBuffer<u8> buffer =
        sys.Allocate<u8>(static_cast<u32>(o.bytes.size())).value();
    buffer.Fill(o.bytes);
    const Status mapped =
        daemon != nullptr
            ? daemon->MapObject(tenant, o.id, buffer.addr(),
                                buffer.size_bytes(), o.elem_width,
                                o.direction)
            : sys.kernel().FpgaMapObject(o.id, buffer.addr(),
                                         buffer.size_bytes(), o.elem_width,
                                         o.direction);
    VCOP_CHECK_MSG(mapped.ok(), mapped.ToString());
    if (o.id == job.output) staged.out = buffer;
  }
  staged.job = std::move(job);
  return staged;
}

/// Registers tenant `name` on `daemon` and stages `job` for it.
inline StagedJob StageTenant(runtime::FpgaSystem& sys, os::Vcopd& daemon,
                             const std::string& name, Job job,
                             u32 weight = 1) {
  const os::TenantId tenant = daemon.RegisterTenant(name, weight).value();
  return PlaceJob(sys, &daemon, tenant, std::move(job));
}

/// FPGA_LOADs the job's design, then stages it in the kernel's default
/// space for FPGA_EXECUTE(job.params).
inline StagedJob StageBlocking(runtime::FpgaSystem& sys, Job job) {
  const Status loaded = sys.Load(job.bitstream);
  VCOP_CHECK_MSG(loaded.ok(), loaded.ToString());
  return PlaceJob(sys, nullptr, 0, std::move(job));
}

// ----- the single-run point runner -----

struct Point {
  usize input_bytes = 0;
  Picoseconds sw = 0;               // pure-software baseline (adpcm, IDEA)
  os::ExecutionReport vim;          // VIM-based coprocessor
  bool exact = false;               // output equals the reference
  bool manual_fits = false;         // IDEA only: normal coprocessor ran
  runtime::ManualRunResult manual;  // valid when manual_fits
};

/// Runs `job` once through FPGA_EXECUTE on a fresh system built from
/// `config`. `inspect`, if given, reads the system before teardown.
inline Point RunPoint(
    const os::KernelConfig& config, const Job& job,
    const std::function<void(runtime::FpgaSystem&, const Point&)>& inspect =
        nullptr) {
  Point point;
  point.input_bytes = job.input_bytes;
  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  if (job.app == App::kAdpcm) point.sw = arm.AdpcmDecodeTime(job.input_bytes);
  if (job.app == App::kIdea) point.sw = arm.IdeaEcbTime(job.input_bytes);

  runtime::FpgaSystem sys(config);
  const StagedJob staged = StageBlocking(sys, job);
  auto report = sys.Execute(job.params);
  VCOP_CHECK_MSG(report.ok(), report.status().ToString());
  point.vim = report.value();
  point.exact = staged.Exact();
  if (inspect) inspect(sys, point);
  // End-of-run audit: anything still queued must drain without ticking
  // another clock edge (the run aborts otherwise).
  sys.kernel().simulator().DrainAssertQuiescent();
  return point;
}

inline Point Checked(Point point) {
  VCOP_CHECK_MSG(point.exact, "coprocessor output mismatch");
  return point;
}

/// adpcmdecode at `input_bytes` on the paper's inputs.
inline Point RunAdpcmPoint(const os::KernelConfig& config,
                           usize input_bytes) {
  return Checked(RunPoint(
      config,
      MakeJob(App::kAdpcm, static_cast<u32>(input_bytes), kWorkloadSeed)));
}

/// IDEA at `input_bytes`: VIM, then the manual "normal coprocessor"
/// (which may fail to fit).
inline Point RunIdeaPoint(const os::KernelConfig& config,
                          usize input_bytes) {
  const Job job =
      MakeJob(App::kIdea, static_cast<u32>(input_bytes), kWorkloadSeed);
  Point point = Checked(RunPoint(config, job));
  auto manual = runtime::RunIdeaManual(
      config.costs, config.dp_ram_bytes,
      apps::IdeaExpandKey(apps::MakeIdeaKey(kWorkloadSeed)),
      job.objects[0].bytes);
  if (manual.ok()) {
    VCOP_CHECK_MSG(manual.value().output == job.expect,
                   "manual IDEA output mismatch");
    point.manual_fits = true;
    point.manual = manual.value().result;
  }
  return point;
}

/// The gather stressor at `elements` words: the in, perm and out objects
/// are elements * 4 bytes each.
inline os::ExecutionReport RunGatherReport(const os::KernelConfig& config,
                                           u32 elements, u64 seed) {
  return Checked(RunPoint(config, MakeJob(App::kGather, elements * 4, seed)))
      .vim;
}

// ----- the vcopd fleet runner -----

struct TenantSpec {
  App app = App::kAdpcm;
  std::string name;
  u32 weight = 1;
  usize input_bytes = 0;
  u32 jobs = 1;
};

/// A tenant's outcome: one turnaround per completed job, and whether
/// every job completed with the reference output.
struct TenantRun {
  TenantSpec spec;
  std::vector<Picoseconds> turnarounds;
  u32 completed = 0;
  u32 preemptions = 0;
  bool outputs_exact = true;
};

struct FleetResult {
  std::vector<TenantRun> tenants;
  os::VcopdStats stats;
  os::VimServiceStats service;
  os::ScheduleReport report;
  /// Designs the kernel built; the rest of the jobs took one from its
  /// pool.
  u32 designs_built = 0;
  bool outputs_exact = true;

  u64 jobs() const {
    u64 n = 0;
    for (const TenantRun& t : tenants) n += t.completed;
    return n;
  }
  /// Completed jobs per simulated millisecond.
  double throughput() const {
    const double ms = static_cast<double>(report.makespan) / 1e9;
    return ms > 0.0 ? static_cast<double>(jobs()) / ms : 0.0;
  }
  /// Jain index over per-tenant fabric time (busy spans): 1.0 = every
  /// tenant held the PLD equally long.
  double jain() const {
    double sum = 0.0, sum_sq = 0.0;
    usize n = 0;
    for (const os::TenantFairness& t : report.per_pid()) {
      const double busy = static_cast<double>(t.busy);
      sum += busy;
      sum_sq += busy * busy;
      ++n;
    }
    return sum_sq > 0.0
               ? (sum * sum) / (static_cast<double>(n) * sum_sq)
               : 0.0;
  }
};

/// Stages tenant i of `specs` with seed kWorkloadSeed + i, submits
/// round-robin (interleaved tickets, so consecutive jobs alternate
/// tenants) and drives the daemon to idle. Each completion checks its
/// tenant's output and then clears it, so the tenant's next job has to
/// write every byte again (a tenant's jobs run one at a time).
inline FleetResult RunVcopdFleet(const std::vector<TenantSpec>& specs,
                                 const os::KernelConfig& kernel_config,
                                 const os::VcopdConfig& config) {
  runtime::FpgaSystem sys(kernel_config);
  os::Vcopd daemon(sys.kernel(), config);
  sys.kernel().vim().ResetServiceStats();

  FleetResult result;
  std::vector<StagedJob> staged;
  u64 seed = kWorkloadSeed;
  u32 remaining = 0;
  for (const TenantSpec& spec : specs) {
    staged.push_back(StageTenant(
        sys, daemon, spec.name,
        MakeJob(spec.app, static_cast<u32>(spec.input_bytes), seed++),
        spec.weight));
    result.tenants.emplace_back().spec = spec;
    remaining += spec.jobs;
  }
  for (u32 round = 0; remaining > 0; ++round) {
    for (usize i = 0; i < specs.size(); ++i) {
      if (round >= specs[i].jobs) continue;
      TenantRun* run = &result.tenants[i];
      StagedJob* job = &staged[i];
      const Status submitted =
          job->Submit(daemon, [run, job](const os::JobResult& r) {
               run->turnarounds.push_back(r.turnaround());
               run->preemptions += r.preemptions;
               ++run->completed;
               run->outputs_exact &= r.status.ok() && job->Exact();
               job->ClearOutput();
             }).status();
      VCOP_CHECK_MSG(submitted.ok(), submitted.ToString());
      --remaining;
    }
  }
  const Status status = daemon.RunUntilIdle();
  VCOP_CHECK_MSG(status.ok(), status.ToString());

  result.stats = daemon.stats();
  result.service = sys.kernel().vim().service_stats();
  result.report = daemon.BuildScheduleReport();
  result.designs_built = sys.kernel().designs_built();
  for (const TenantRun& tenant : result.tenants) {
    result.outputs_exact &=
        tenant.outputs_exact && tenant.completed == tenant.spec.jobs;
  }
  return result;
}

// ----- trace artifacts -----

/// The Figure-7 run: a one-element vecadd (one read of A, one of B, one
/// write of C) on a fresh system built from `config`, with `tracer`
/// attached to the IMU from before the first mapping. Returns the
/// simulated time at the end of the run.
inline Picoseconds RunFig7(const os::KernelConfig& config,
                           sim::Tracer& tracer) {
  runtime::FpgaSystem sys(config);
  VCOP_CHECK(sys.Load(cp::VecAddBitstream()).ok());
  sys.kernel().imu()->AttachTracer(&tracer);
  auto a = sys.Allocate<u32>(1);
  auto b = sys.Allocate<u32>(1);
  auto c = sys.Allocate<u32>(1);
  VCOP_CHECK(a.ok() && b.ok() && c.ok());
  a.value().view()[0] = 0x0000CAFE;
  b.value().view()[0] = 0x00000001;
  VCOP_CHECK(sys.Map(0, a.value(), os::Direction::kIn).ok());
  VCOP_CHECK(sys.Map(1, b.value(), os::Direction::kIn).ok());
  VCOP_CHECK(sys.Map(2, c.value(), os::Direction::kOut).ok());
  auto report = sys.Execute({1u});
  VCOP_CHECK_MSG(report.ok(), report.status().ToString());
  VCOP_CHECK(c.value().view()[0] == 0x0000CAFF);
  return sys.kernel().simulator().now();
}

/// The Figure-7 waveform, as fig7_timing writes it.
inline std::string Fig7Vcd(const os::KernelConfig& config) {
  sim::Tracer tracer;
  RunFig7(config, tracer);
  return tracer.ToVcd();
}

/// The edge-detect-style Chrome trace: a 96x24 conv2d (sharpen) with the
/// timeline recorder and sequential prefetch overlapped on top of
/// `config`, the busiest DMA schedule the examples produce.
inline std::string ConvChromeTrace(os::KernelConfig config) {
  config.vim.prefetch = os::PrefetchKind::kSequential;
  config.vim.overlap_prefetch = true;
  runtime::FpgaSystem sys(config);
  const std::vector<u8> image = apps::MakeTestImage(96, 24, 7);
  const auto run = runtime::RunConv3x3Vim(sys, image, 96, 24,
                                          apps::SharpenKernel(), 0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  return sys.kernel().timeline().ToChromeTrace();
}

}  // namespace vcop::bench
