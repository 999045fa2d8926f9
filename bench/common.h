// The harness the bench binaries and the tests share: one stager per
// application (seeded inputs and the software reference around the
// runtime's description of the job, runtime/drivers.h, plus the
// exactness check), one run on a fresh system with its end-of-run
// audit, the seeded fault-plan grid, the list of every report field,
// the single-run point runner, the vcopd fleet runner and the two trace
// artifacts. Every bench keeps its own sizes, gates, tables and JSON.
#pragma once

#include <bit>
#include <chrono>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/sw_model.h"
#include "apps/workloads.h"
#include "base/fault.h"
#include "base/status.h"
#include "base/table.h"
#include "cp/registry.h"
#include "os/kernel.h"
#include "os/vcopd.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"
#include "sim/stats.h"
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

/// One job's host side, fixed by (app, input size, seed): the
/// application's FPGA job as the runtime describes it (bit-stream,
/// objects, FPGA_EXECUTE parameters, output object) plus the software
/// reference output.
struct Job : runtime::FpgaJob {
  App app = App::kAdpcm;
  u32 input_bytes = 0;
  std::vector<u8> expect;  // software reference output
};

/// Builds the job for `app` over `input_bytes` of seeded input: adpcm's
/// compressed stream, IDEA's plaintext (ECB), one vecadd or gather
/// operand, or a conv2d image `conv_width` pixels wide (box blur,
/// shift 3).
inline Job MakeJob(App app, u32 input_bytes, u64 seed,
                   u32 conv_width = kConvWidth) {
  using runtime::AsBytes;
  runtime::FpgaJob fpga;
  std::vector<u8> expect;
  switch (app) {
    case App::kAdpcm: {
      const std::vector<u8> input = apps::MakeAdpcmStream(input_bytes, seed);
      std::vector<i16> pcm(input.size() * 2);
      apps::AdpcmState state;
      apps::AdpcmDecode(input, pcm, state);
      fpga = runtime::AdpcmDecodeJob(input);
      expect = AsBytes(std::span<const i16>(pcm));
      break;
    }
    case App::kIdea: {
      const apps::IdeaSubkeys keys =
          apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
      const std::vector<u8> input = apps::MakeRandomBytes(input_bytes,
                                                          seed + 1);
      expect.resize(input.size());
      apps::IdeaCryptEcb(keys, input, expect);
      fpga = runtime::IdeaJob(keys, input);
      break;
    }
    case App::kVecAdd: {
      const u32 n = input_bytes / static_cast<u32>(sizeof(u32));
      std::vector<u32> a(n), b(n), c(n);
      for (u32 i = 0; i < n; ++i) {
        a[i] = static_cast<u32>(seed) * 1000003u + i;
        b[i] = static_cast<u32>(seed) * 7919u + 3u * i;
        c[i] = a[i] + b[i];
      }
      fpga = runtime::VecAddJob(a, b);
      expect = AsBytes(std::span<const u32>(c));
      break;
    }
    case App::kConv: {
      constexpr u32 kShift = 3;  // box blur: sum 9, >> 3
      const u32 height = input_bytes / conv_width;
      const std::vector<u8> image =
          apps::MakeTestImage(conv_width, height, seed);
      const apps::Conv3x3Kernel kernel = apps::BoxBlurKernel();
      expect.resize(image.size());
      apps::Convolve3x3(image, conv_width, height, kernel, kShift, expect);
      fpga = runtime::Conv3x3Job(image, conv_width, height, kernel, kShift);
      break;
    }
    case App::kGather: {
      const u32 n = input_bytes / static_cast<u32>(sizeof(u32));
      const apps::GatherInput g = apps::MakeRandomGather(n, seed);
      std::vector<u32> out(n);
      for (u32 i = 0; i < n; ++i) out[i] = g.in[g.perm[i]];
      fpga = runtime::GatherJob(g.in, g.perm);
      expect = AsBytes(std::span<const u32>(out));
      break;
    }
  }
  return Job{std::move(fpga), app, input_bytes, std::move(expect)};
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
  for (const runtime::JobObject& o : job.objects) {
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

// ----- one run on a fresh system -----

/// One job's run on a fresh system (RunFresh).
struct FreshRun {
  Status status = Status::Ok();
  std::vector<u8> output;      // the output object; empty on failure
  bool exact = false;          // output equals the software reference
  os::ExecutionReport report;  // valid when status.ok()
  os::VimServiceStats service;
  Picoseconds sim_now = 0;  // simulated time at the end of the run
  u64 events = 0;           // events dispatched, the audit's included
};

/// Runs `job` through runtime::RunJob on a fresh system built from
/// `config`, under `plan` (with none, none is installed). `inspect`, if
/// given, reads the system and the result (`events` not yet set) before
/// the end-of-run audit: anything still queued must drain without
/// ticking another clock edge (the process aborts otherwise).
inline FreshRun RunFresh(
    const os::KernelConfig& config, const Job& job, FaultPlan* plan = nullptr,
    const std::function<void(runtime::FpgaSystem&, const FreshRun&)>&
        inspect = nullptr) {
  runtime::FpgaSystem sys(config);
  if (plan != nullptr) sys.kernel().InstallFaultPlan(plan);
  FreshRun run;
  Result<runtime::VimRun<u8>> result = runtime::RunJob(sys, job);
  run.status = result.status();
  if (result.ok()) {
    run.output = std::move(result.value().output);
    run.exact = run.output == job.expect;
    run.report = result.value().report;
  }
  run.service = sys.kernel().vim().service_stats();
  sim::Simulator& sim = sys.kernel().simulator();
  run.sim_now = sim.now();
  if (inspect) inspect(sys, run);
  sim.DrainAssertQuiescent();
  run.events = sim.events_dispatched();
  return run;
}

// ----- the seeded fault-plan grid -----

/// The grid's streaming workload for `seed`: adpcm, IDEA, vecadd or
/// conv2d by seed % 4.
inline App GridApp(u64 seed) {
  constexpr App kApps[] = {App::kAdpcm, App::kIdea, App::kVecAdd, App::kConv};
  return kApps[seed % 4];
}

/// Runs the grid's workload for `seed` on a fresh system built from
/// `config`, under `plan` (none installed when null), and audits the
/// end of the run (RunFresh). The streaming workloads fit the 16 KB
/// dual-port RAM: adpcm 2 KB, IDEA 1 KB, vecadd 512 words, a 48x24
/// conv2d image. With `gather`, the run is instead a 6144-word gather,
/// whose 24 KB objects evict, write back mid-run and re-load pages.
inline FreshRun RunGrid(u64 seed, const os::KernelConfig& config,
                        FaultPlan* plan, bool gather = false) {
  constexpr u32 kGridWidth = 48;
  const App app = gather ? App::kGather : GridApp(seed);
  u32 bytes = 0;
  switch (app) {
    case App::kAdpcm: bytes = 2048; break;
    case App::kIdea: bytes = 1024; break;
    case App::kVecAdd: bytes = 512 * 4; break;
    case App::kConv: bytes = kGridWidth * 24; break;
    case App::kGather: bytes = 6144 * 4; break;
  }
  return RunFresh(config, MakeJob(app, bytes, seed, kGridWidth), plan);
}

// ----- every report field -----

/// One ExecutionReport field by dotted name. A double enters as its bit
/// pattern, so equal values mean bit-identical fields.
struct ReportField {
  const char* name;
  u64 value;
};

/// Every ExecutionReport field, in declaration order; a sim::Summary
/// enters as its count, sum, min and max. The whole-report checks (the
/// engine differential, the empty-plan check, bench_fastforward's
/// digest) all read this one list.
inline std::vector<ReportField> ReportFields(const os::ExecutionReport& r) {
  // The 41 fields below are 8 bytes each: a field added to the report
  // fails this until it joins the list.
  static_assert(sizeof(os::ExecutionReport) == 41 * sizeof(u64));
  const os::VimAccounting& v = r.vim;
  const sim::Summary& fs = v.fault_service_us;
  auto bits = [](double d) { return std::bit_cast<u64>(d); };
  return {
      {"total", r.total},
      {"t_hw", r.t_hw},
      {"t_dp", r.t_dp},
      {"t_imu", r.t_imu},
      {"t_invoke", r.t_invoke},
      {"vim.t_dp", v.t_dp},
      {"vim.t_imu", v.t_imu},
      {"vim.t_wakeup", v.t_wakeup},
      {"vim.faults", v.faults},
      {"vim.tlb_refills", v.tlb_refills},
      {"vim.evictions", v.evictions},
      {"vim.writebacks", v.writebacks},
      {"vim.loads", v.loads},
      {"vim.kernel_copy_loads", v.kernel_copy_loads},
      {"vim.prefetched_pages", v.prefetched_pages},
      {"vim.cleaned_pages", v.cleaned_pages},
      {"vim.bytes_loaded", v.bytes_loaded},
      {"vim.bytes_written_back", v.bytes_written_back},
      {"vim.t_dp_overlapped", v.t_dp_overlapped},
      {"vim.t_dp_wait", v.t_dp_wait},
      {"vim.dirty_in_pages_dropped", v.dirty_in_pages_dropped},
      {"vim.preemptions", v.preemptions},
      {"vim.fault_recoveries", v.fault_recoveries},
      {"vim.iommu_faults", v.iommu_faults},
      {"vim.prefetch_useful", v.prefetch_useful},
      {"vim.fault_service_us.count", fs.count()},
      {"vim.fault_service_us.sum", bits(fs.sum())},
      {"vim.fault_service_us.min", bits(fs.min())},
      {"vim.fault_service_us.max", bits(fs.max())},
      {"imu.accesses", r.imu.accesses},
      {"imu.reads", r.imu.reads},
      {"imu.writes", r.imu.writes},
      {"imu.faults", r.imu.faults},
      {"imu.fault_stall_time", r.imu.fault_stall_time},
      {"imu.access_latency_time", r.imu.access_latency_time},
      {"tlb.lookups", r.tlb.lookups},
      {"tlb.hits", r.tlb.hits},
      {"tlb.misses", r.tlb.misses},
      {"tlb.parity_errors", r.tlb.parity_errors},
      {"tlb.installs", r.tlb.installs},
      {"cp_cycles", r.cp_cycles},
  };
}

/// The fields in which `got` differs from `want`, one "name: got vs
/// want" line each; empty when the two reports are bit-identical.
inline std::string ReportMismatch(const os::ExecutionReport& got,
                                  const os::ExecutionReport& want) {
  const std::vector<ReportField> a = ReportFields(got);
  const std::vector<ReportField> b = ReportFields(want);
  std::string mismatch;
  for (usize i = 0; i < a.size(); ++i) {
    if (a[i].value == b[i].value) continue;
    mismatch += StrFormat("%s: %llu vs %llu\n", a[i].name,
                          static_cast<unsigned long long>(a[i].value),
                          static_cast<unsigned long long>(b[i].value));
  }
  return mismatch;
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
/// `config` (RunFresh, which passes `inspect` on).
inline Point RunPoint(
    const os::KernelConfig& config, const Job& job,
    const std::function<void(runtime::FpgaSystem&, const FreshRun&)>&
        inspect = nullptr) {
  Point point;
  point.input_bytes = job.input_bytes;
  apps::ArmTimingModel arm;
  arm.cpu_clock = config.costs.cpu_clock;
  if (job.app == App::kAdpcm) point.sw = arm.AdpcmDecodeTime(job.input_bytes);
  if (job.app == App::kIdea) point.sw = arm.IdeaEcbTime(job.input_bytes);

  const FreshRun run = RunFresh(config, job, nullptr, inspect);
  VCOP_CHECK_MSG(run.status.ok(), run.status.ToString());
  point.vim = run.report;
  point.exact = run.exact;
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

/// What a fleet run keeps of its daemon's schedule report, which refers
/// to results that end with the daemon.
struct FleetResult {
  std::vector<TenantRun> tenants;
  os::VcopdStats stats;
  os::VimServiceStats service;
  /// The schedule's makespan and per-pid digest.
  Picoseconds makespan = 0;
  std::vector<os::TenantFairness> fairness;
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
    const double ms = static_cast<double>(makespan) / 1e9;
    return ms > 0.0 ? static_cast<double>(jobs()) / ms : 0.0;
  }
  /// Mean turnaround over every completed job.
  Picoseconds mean_turnaround() const {
    Picoseconds sum = 0;
    for (const TenantRun& t : tenants) {
      for (const Picoseconds turnaround : t.turnarounds) sum += turnaround;
    }
    return jobs() > 0 ? sum / jobs() : 0;
  }
  /// Jain index over per-tenant fabric time (busy spans): 1.0 = every
  /// tenant held the PLD equally long.
  double jain() const {
    double sum = 0.0, sum_sq = 0.0;
    usize n = 0;
    for (const os::TenantFairness& t : fairness) {
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
  const os::ScheduleReport report = daemon.BuildScheduleReport();
  result.makespan = report.makespan;
  result.fairness = report.per_pid();
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
  const std::vector<u32> a = {0x0000CAFE}, b = {0x00000001};
  const auto run = runtime::RunVecAddVim(sys, a, b);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  VCOP_CHECK(run.value().output[0] == 0x0000CAFF);
  return sys.kernel().simulator().now();
}

/// The Figure-7 waveform, as fig7_timing writes it.
inline std::string Fig7Vcd(const os::KernelConfig& config) {
  sim::Tracer tracer;
  RunFig7(config, tracer);
  return tracer.ToVcd();
}

/// The edge-detect-style Chrome trace: a 256x24 conv2d (sharpen) with the
/// timeline recorder and background cleaning on top of `config`, wide
/// enough that fault services queue clean units (`overlap` events) beside
/// the faults and the sweep.
inline std::string ConvChromeTrace(os::KernelConfig config) {
  config.vim.prefetch = os::PrefetchKind::kClean;
  runtime::FpgaSystem sys(config);
  const std::vector<u8> image = apps::MakeTestImage(256, 24, 7);
  const auto run = runtime::RunConv3x3Vim(sys, image, 256, 24,
                                          apps::SharpenKernel(), 0);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  return sys.kernel().timeline().ToChromeTrace();
}

}  // namespace vcop::bench
