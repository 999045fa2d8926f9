// The harness the bench binaries and the tests share: one stager per
// application (seeded inputs and the software reference around the
// runtime's description of the job, runtime/drivers.h, plus the
// exactness check), one run on a fresh system with its end-of-run
// audit, the seeded fault-plan grid, the single-run point runner, the
// vcopd fleet runner, the two trace artifacts and the one runner of the
// JSON benches (Bench): a bench declares its rows, the values each row
// reports by dotted name and its gates, and Bench does the rest.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/sw_model.h"
#include "apps/workloads.h"
#include "base/fault.h"
#include "base/field.h"
#include "base/latency_histogram.h"
#include "base/status.h"
#include "base/table.h"
#include "cp/registry.h"
#include "os/kernel.h"
#include "os/vcopd.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "runtime/report.h"
#include "sim/fleet.h"
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
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The count in environment variable `name` if it is at least `min`,
/// else `fallback`.
inline u32 EnvCount(const char* name, u32 fallback, u32 min) {
  if (const char* env = std::getenv(name)) {
    const long n = std::atol(env);
    if (n >= static_cast<long>(min)) return static_cast<u32>(n);
  }
  return fallback;
}

/// FNV-1a over 64-bit words and bytes: the benches' digests of what a
/// run computed.
class Digest {
 public:
  void Mix(u64 v) {
    for (int i = 0; i < 8; ++i) MixByte(static_cast<u8>(v >> (8 * i)));
  }
  void MixBytes(std::span<const u8> bytes) {
    for (u8 b : bytes) MixByte(b);
  }
  u64 value() const { return h_; }

 private:
  void MixByte(u8 b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  u64 h_ = 1469598103934665603ull;
};

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
  Result<os::Ticket> Submit(os::Vcopd& daemon) const {
    return daemon.Submit(tenant, job.bitstream, job.params);
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
  u64 imu_accesses = 0;     // by the loaded design's IMU, failed runs too
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
  if (const hw::Imu* imu = sys.kernel().imu()) {
    run.imu_accesses = imu->stats().accesses;
  }
  sim::Simulator& sim = sys.kernel().simulator();
  run.sim_now = sim.now();
  if (inspect) inspect(sys, run);
  sim.DrainAssertQuiescent();
  run.events = sim.events_dispatched();
  return run;
}

// ----- the seeded fault-plan grid -----

/// Runs the grid's workload for `seed` on a fresh system built from
/// `config`, under `plan` (none installed when null), and audits the
/// end of the run (RunFresh). The streaming workload is adpcm, IDEA,
/// vecadd or conv2d by seed % 4, each fitting the 16 KB dual-port RAM:
/// adpcm 2 KB, IDEA 1 KB, vecadd 512 words, a 48x24 conv2d image. With
/// `gather`, the run is instead a 6144-word gather, whose 24 KB objects
/// evict, write back mid-run and re-load pages.
inline FreshRun RunGrid(u64 seed, const os::KernelConfig& config,
                        FaultPlan* plan, bool gather = false) {
  constexpr u32 kGridWidth = 48;
  constexpr App kApps[] = {App::kAdpcm, App::kIdea, App::kVecAdd, App::kConv};
  const App app = gather ? App::kGather : kApps[seed % 4];
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

// ----- whole-report checks -----

/// The fields in which `got` differs from `want`, one "name: got vs
/// want" line each; empty when the two reports are bit-identical.
inline std::string ReportMismatch(const os::ExecutionReport& got,
                                  const os::ExecutionReport& want) {
  const std::vector<Field> a = os::FieldsOf(got);
  const std::vector<Field> b = os::FieldsOf(want);
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
  hw::ConfigSlotStats slots;  // the fabric's, over the whole run
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
  for (usize i = 0; i < specs.size(); ++i) {
    TenantRun* run = &result.tenants[i];
    StagedJob* job = &staged[i];
    VCOP_CHECK(daemon
                   .SetCompletionListener(
                       job->tenant,
                       [run, job](const os::JobResult& r, std::optional<u64>) {
                         run->turnarounds.push_back(r.turnaround());
                         run->preemptions += r.preemptions;
                         ++run->completed;
                         run->outputs_exact &= r.status.ok() && job->Exact();
                         job->ClearOutput();
                       })
                   .ok());
  }
  for (u32 round = 0; remaining > 0; ++round) {
    for (usize i = 0; i < specs.size(); ++i) {
      if (round >= specs[i].jobs) continue;
      const Status submitted = staged[i].Submit(daemon).status();
      VCOP_CHECK_MSG(submitted.ok(), submitted.ToString());
      --remaining;
    }
  }
  const Status status = daemon.RunUntilIdle();
  VCOP_CHECK_MSG(status.ok(), status.ToString());

  result.stats = daemon.stats();
  result.service = sys.kernel().vim().service_stats();
  result.slots = sys.kernel().fabric().slot_stats();
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

// ----- the JSON bench runner -----

/// One value a row reports: a number printed with `decimals` digits
/// after the point (0 for a count), a flag or a label.
struct Value {
  enum class Kind : u8 { kNumber, kFlag, kText };
  Kind kind = Kind::kNumber;
  double number = 0.0;  // a flag is 0 or 1
  int decimals = 0;
  std::string text{};  // a label

  /// As the table prints it; the JSON quotes a label.
  std::string ToString() const {
    if (kind == Kind::kText) return text;
    if (kind == Kind::kFlag) return number != 0.0 ? "true" : "false";
    return StrFormat("%.*f", decimals, number);
  }
  std::string ToJson() const {
    return kind == Kind::kText ? "\"" + text + "\"" : ToString();
  }
};

using NamedValues = std::vector<std::pair<std::string, Value>>;

/// The value `name` in `values`, or null.
inline const Value* FindValue(const NamedValues& values,
                              std::string_view name) {
  for (const auto& [n, v] : values) {
    if (n == name) return &v;
  }
  return nullptr;
}

/// A row's values by dotted name, in the order it reports them, and
/// apart from them what it measured of the host (wall times), which no
/// golden compares.
class Values {
 public:
  /// Adds each of `names` from `table` (a FieldsOf table, next to its
  /// struct in src/), as "<scope>.<name>" when `scope` is given. A name
  /// "<stem>_us" reports the table's time "<stem>_ps" in microseconds.
  /// A name the table lacks fails loudly.
  Values& Add(const std::vector<Field>& table,
              std::initializer_list<std::string_view> names,
              const std::string& scope = "") {
    auto find = [&table](std::string_view name) -> const Field* {
      for (const Field& f : table) {
        if (name == f.name) return &f;
      }
      return nullptr;
    };
    for (const std::string_view name : names) {
      std::string full(name);
      if (!scope.empty()) full = scope + "." + full;
      if (const Field* f = find(name)) {
        Count(std::move(full), f->value);
        continue;
      }
      const Field* stem =
          name.ends_with("_us")
              ? find(std::string(name.substr(0, name.size() - 3)) + "_ps")
              : nullptr;
      VCOP_CHECK_MSG(stem != nullptr, "no field named " + std::string(name));
      Us(std::move(full), stem->value);
    }
    return *this;
  }
  Values& Count(std::string name, u64 n) {
    return Put(named, std::move(name),
               {Value::Kind::kNumber, static_cast<double>(n)});
  }
  Values& Real(std::string name, double x, int decimals) {
    return Put(named, std::move(name), {Value::Kind::kNumber, x, decimals});
  }
  Values& Us(std::string name, Picoseconds t) {
    return Real(std::move(name), ToMicroseconds(t), 3);
  }
  Values& Flag(std::string name, bool b) {
    return Put(named, std::move(name), {Value::Kind::kFlag, b ? 1.0 : 0.0});
  }
  Values& Text(std::string name, std::string text) {
    return Put(named, std::move(name),
               {Value::Kind::kText, 0.0, 0, std::move(text)});
  }
  /// A host measurement, written to the uncompared "host" block.
  Values& Host(std::string name, double x, int decimals) {
    return Put(host, std::move(name), {Value::Kind::kNumber, x, decimals});
  }

  NamedValues named;
  NamedValues host;

 private:
  Values& Put(NamedValues& into, std::string name, Value value) {
    VCOP_CHECK_MSG(FindValue(into, name) == nullptr, "twice: " + name);
    into.emplace_back(std::move(name), std::move(value));
    return *this;
  }
};

/// A row: its label and the simulation that measures its values.
struct Row {
  std::string label;
  std::function<void(Values&)> run;
};

/// How a gate compares a value with its bound.
enum class Cmp : u8 { kLt, kLe, kEq, kGe, kGt };

/// One gate: value `name` of row `row` (of every row that reports it,
/// when `row` is empty) against the constant `bound`; or, when `of_name`
/// is given, against `scale` x value `of_name` of row `of_row` (the
/// gated row, when empty) + `bound`. A label compares only for equality,
/// with another label.
struct Gate {
  std::string row;
  std::string name;
  Cmp cmp = Cmp::kEq;
  double bound = 0.0;
  std::string of_row{};
  std::string of_name{};
  double scale = 1.0;
};

/// The runner of the JSON benches. A bench runs its rows (Run), each
/// reporting its values by dotted name, and declares its gates
/// (Finish); Bench prints the rows as one table, checks the gates
/// and writes BENCH_<name>.json in the one schema: "bench", "rows" (each
/// row's label and values), "gates" (value, bound, pass), "gates_pass"
/// and last "host" (wall times and thread counts), which no golden
/// compares.
class Bench {
 public:
  explicit Bench(std::string name) : name_(std::move(name)) {}

  /// Runs `rows` side by side on the fleet (sim::FleetMap rules for
  /// `threads`; 1 runs them one at a time, for rows that time their own
  /// sweeps) and keeps their values, in order.
  void Run(const std::vector<Row>& rows, u32 threads = 0) {
    std::vector<Values> values = sim::FleetMap<Values>(
        rows.size(),
        [&rows](usize i) {
          Values v;
          rows[i].run(v);
          return v;
        },
        threads);
    for (usize i = 0; i < rows.size(); ++i) {
      rows_.emplace_back(rows[i].label, std::move(values[i]));
    }
  }

  /// Adds a row computed from the values of rows already run.
  void Add(std::string label, Values values) {
    rows_.emplace_back(std::move(label), std::move(values));
  }

  /// Value `name` of row `row`; fails loudly when there is none.
  const Value& Get(std::string_view row, std::string_view name) const {
    const Value* v = nullptr;
    for (const auto& [label, values] : rows_) {
      if (label == row) v = FindValue(values.named, name);
    }
    VCOP_CHECK_MSG(v != nullptr, "row " + std::string(row) +
                                     " reports no value named " +
                                     std::string(name));
    return *v;
  }

  /// Prints the rows as one table, checks `gates`, writes
  /// BENCH_<name>.json and returns the exit code: 1 if any gate fails.
  int Finish(const std::vector<Gate>& gates) const {
    PrintTable();
    std::string gates_json;
    bool all_pass = true;
    for (const Gate& gate : gates) {
      bool checked = false;
      for (const auto& [label, values] : rows_) {
        if (gate.row.empty() ? FindValue(values.named, gate.name) == nullptr
                             : label != gate.row) {
          continue;
        }
        checked = true;
        const Value& value = Get(label, gate.name);
        Value bound = value;
        bound.number = gate.bound;
        std::string rhs = bound.ToString();
        if (!gate.of_name.empty()) {
          const std::string& of_row = gate.of_row.empty() ? label : gate.of_row;
          const Value& of = Get(of_row, gate.of_name);
          bound.number = gate.scale * of.number + gate.bound;
          bound.text = of.text;
          rhs = (gate.scale != 1.0 ? StrFormat("%g x ", gate.scale) : "") +
                "[" + of_row + "] " + gate.of_name;
          if (gate.bound != 0.0) {
            rhs += StrFormat(" %c %g", gate.bound < 0 ? '-' : '+',
                             std::abs(gate.bound));
          }
        }
        const bool pass = Compare(value, gate.cmp, bound);
        all_pass &= pass;
        const std::string what = "[" + label + "] " + gate.name + " " +
                                 kCmpNames[static_cast<int>(gate.cmp)] + " " +
                                 rhs;
        std::printf("%s %s (value %s, bound %s)\n", pass ? "pass:" : "FAIL:",
                    what.c_str(), value.ToString().c_str(),
                    bound.ToString().c_str());
        gates_json += StrFormat(
            "%s\n    {\"gate\": \"%s\", \"value\": %s, \"bound\": %s, "
            "\"pass\": %s}",
            gates_json.empty() ? "" : ",", what.c_str(),
            value.ToJson().c_str(), bound.ToJson().c_str(),
            pass ? "true" : "false");
      }
      VCOP_CHECK_MSG(checked, "no row reports " + gate.name);
    }

    std::string json = "{\n  \"bench\": \"" + name_ + "\",\n  \"rows\": [";
    std::string host_rows;
    for (usize i = 0; i < rows_.size(); ++i) {
      const auto& [label, values] = rows_[i];
      json += RowJson(i == 0, label, values.named);
      if (!values.host.empty()) {
        host_rows += RowJson(host_rows.empty(), label, values.host);
      }
    }
    json += "\n  ],\n  \"gates\": [" + gates_json + "\n  ],\n";
    json += StrFormat("  \"gates_pass\": %s,\n", all_pass ? "true" : "false");
    // What the host decides goes last, under "host": the bench_goldens
    // test compares only what precedes it.
    json += StrFormat(
        "  \"host\": {\"wall_ms\": %.3f, \"fleet_threads\": %u, "
        "\"hardware_concurrency\": %u",
        timer_.ElapsedMs(), sim::FleetThreadCount(),
        std::thread::hardware_concurrency());
    if (!host_rows.empty()) json += ", \"rows\": [" + host_rows + "\n  ]";
    json += "}\n}\n";

    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    VCOP_CHECK_MSG(f != nullptr, "cannot open " + path + " for writing");
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("%s; wrote %s\n", all_pass ? "all gates pass" : "GATES FAIL",
                path.c_str());
    return all_pass ? 0 : 1;
  }

 private:
  static constexpr const char* kCmpNames[] = {"<", "<=", "==", ">=", ">"};

  static bool Compare(const Value& value, Cmp cmp, const Value& bound) {
    if (value.kind == Value::Kind::kText) {
      VCOP_CHECK_MSG(cmp == Cmp::kEq, "a label compares only for equality");
      return value.text == bound.text;
    }
    const double a = value.number;
    const double b = bound.number;
    switch (cmp) {
      case Cmp::kLt: return a < b;
      case Cmp::kLe: return a <= b;
      case Cmp::kEq: return a == b;
      case Cmp::kGe: return a >= b;
      case Cmp::kGt: return a > b;
    }
    return false;
  }

  static std::string RowJson(bool first, const std::string& label,
                             const NamedValues& values) {
    std::string json = StrFormat("%s\n    {\"row\": \"%s\", \"values\": {",
                                 first ? "" : ",", label.c_str());
    for (usize i = 0; i < values.size(); ++i) {
      json += StrFormat("%s\n      \"%s\": %s", i == 0 ? "" : ",",
                        values[i].first.c_str(),
                        values[i].second.ToJson().c_str());
    }
    return json + "\n    }}";
  }

  /// One table: a line per value, the host's too, and a column per row.
  void PrintTable() const {
    std::vector<std::string> header = {"value"};
    std::vector<NamedValues> columns;
    std::vector<std::string> names;
    for (const auto& [label, values] : rows_) {
      header.push_back(label);
      NamedValues& column = columns.emplace_back(values.named);
      for (const auto& [name, value] : values.host) {
        column.emplace_back("host." + name, value);
      }
      for (const auto& [name, value] : column) {
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          names.push_back(name);
        }
      }
    }
    Table table(header);
    table.set_title("BENCH_" + name_ + ".json");
    for (const std::string& name : names) {
      std::vector<std::string> line = {name};
      for (const NamedValues& column : columns) {
        const Value* v = FindValue(column, name);
        line.push_back(v != nullptr ? v->ToString() : "");
      }
      table.AddRow(std::move(line));
    }
    table.Print();
    std::printf("\n");
  }

  std::string name_;
  WallTimer timer_;
  std::vector<std::pair<std::string, Values>> rows_;
};

// ----- what a vcopd fleet reports -----

/// Adds a fleet run's values to `v`: its makespan and throughput, the
/// daemon's switches and configuration time, the designs the fabric's
/// slots evicted, context saves, the Jain index over per-tenant fabric
/// time and whether every job ran exact.
inline void AddFleetValues(Values& v, const FleetResult& fleet) {
  const os::VcopdStats& s = fleet.stats;
  v.Us("makespan_us", fleet.makespan)
      .Count("jobs", fleet.jobs())
      .Real("jobs_per_sim_ms", fleet.throughput(), 3)
      .Add(os::FieldsOf(s),
           {"vcopd.preemptions", "vcopd.reconfigurations",
            "vcopd.slot_activations", "vcopd.total_config_time_us",
            "vcopd.total_activation_time_us"})
      .Real("config_share",
            fleet.makespan > 0
                ? static_cast<double>(s.total_config_time +
                                      s.total_activation_time) /
                      static_cast<double>(fleet.makespan)
                : 0.0,
            4)
      .Add(hw::FieldsOf(fleet.slots), {"fabric.evictions"})
      .Add(os::FieldsOf(fleet.service),
           {"vim.context_saves", "vim.pages_written_back_on_save"})
      .Real("jain", fleet.jain(), 4)
      .Flag("outputs_exact", fleet.outputs_exact);
}

/// Adds each tenant's values to `v`, as "tenant.<name>.<value>".
inline void AddTenantValues(Values& v, const FleetResult& fleet) {
  for (const TenantRun& t : fleet.tenants) {
    const std::string p = "tenant." + t.spec.name + ".";
    v.Text(p + "app", AppName(t.spec.app))
        .Count(p + "weight", t.spec.weight)
        .Count(p + "input_bytes", t.spec.input_bytes)
        .Count(p + "jobs", t.completed)
        .Count(p + "preemptions", t.preemptions)
        .Us(p + "p50_turnaround_us", PercentileNearestRank(t.turnarounds, 0.5))
        .Us(p + "p99_turnaround_us", PercentileNearestRank(t.turnarounds, 0.99))
        .Flag(p + "outputs_exact", t.outputs_exact);
  }
}

}  // namespace vcop::bench
