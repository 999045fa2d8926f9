// The benchmark's three workloads. Each is built from a seed by a
// generator, and the program sees only the generated inputs:
//
//   paper_stream   one blocking caller in a closed loop over the paper's
//                  Load/Map/Execute path: the fig8 adpcm points
//                  (2/4/8 KB), the fig9 IDEA points (4-32 KB) and conv2d
//                  images of about 512x12, 1024x24 and 2048x24 (widths
//                  trimmed by the seed). Exercises the per-access path
//                  (sim, cp, hw.imu) and mem.transfer; hw.fabric,
//                  os.vcopd and os.service stay idle.
//   gather_thrash  the gather coprocessor (out[i] = in[perm[i]]) in a
//                  closed loop over seeded random permutations of
//                  objects 1.5x and 3x the DP-RAM plus one
//                  high-locality permutation: thousands of faults, so
//                  os.vim fault service, replacement and mem.transfer
//                  dominate.
//   service_open   144 tenants (half adpcm, a quarter each IDEA and
//                  conv2d) publishing small jobs through os.service
//                  rings into os.vcopd, as an open loop over a fixed
//                  ladder of offered rates: hw.fabric
//                  configuration, vcopd queueing and context switches
//                  dominate.
#pragma once

#include <memory>
#include <vector>

#include "base/types.h"
#include "base/units.h"
#include "hw/fabric.h"
#include "hw/imu.h"
#include "hw/tlb.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "os/service.h"
#include "os/vcopd.h"
#include "runtime/fpga_api.h"
#include "trace.h"

namespace vcop::perfbench {

enum class App : u8 { kAdpcm, kIdea, kConv, kGather };

/// One interface object of a job. IN objects carry their contents; OUT
/// objects only their size.
struct Object {
  hw::ObjectId id = 0;
  u32 elem_width = 1;
  os::Direction direction = os::Direction::kIn;
  u32 bytes = 0;
  std::vector<u8> data;
};

/// One coprocessor invocation, as the generator builds it. objects[1] is
/// the OUT object, checked against Reference.
struct Job {
  App app = App::kAdpcm;
  std::vector<Object> objects;
  std::vector<u32> params;
};

hw::Bitstream Design(App app);

/// The apps software reference for the job's output object, as bytes.
std::vector<u8> Reference(const Job& job);

/// The fig8/fig9 points: adpcm 2/4/8 KB, then IDEA 4/8/16/32 KB.
std::vector<Job> PaperPoints(u64 seed);
/// The paper's speedup per point of PaperPoints (EXPERIMENTS E2/E3).
inline constexpr double kPaperSpeedup[] = {1.5, 1.5, 1.6, 11, 12, 11, 11};

std::vector<Job> PaperStreamJobs(u64 seed);  // PaperPoints + conv2d
std::vector<Job> GatherJobs(u64 seed);

struct ServiceInputs {
  std::vector<Job> tenants;  // every job of tenant i is tenants[i]
  u32 jobs_per_tenant = 0;
  /// Per tenant and job k: where in its k-th mean gap the arrival falls,
  /// in 1/65536ths. Every tenant offers the same jobs at a steady rate,
  /// and any offered rate keeps the same shape.
  std::vector<std::vector<u32>> phase_units;
};
ServiceInputs ServiceTenants(u64 seed);

/// Simulated-time results of one pass: deterministic for a seed.
struct SimStats {
  u64 jobs = 0;
  u64 refused = 0;  // ring-full arrivals
  u64 errors = 0;   // jobs that completed with a non-OK status
  u64 wrong = 0;    // outputs that differ from the software reference
  Picoseconds makespan = 0;
  std::vector<Picoseconds> turnaround;  // one per completed job
  std::vector<Picoseconds> job_totals;  // blocking: FPGA_EXECUTE totals

  u64 events = 0;
  u64 cp_cycles = 0;
  hw::ImuStats imu;
  hw::TlbStats tlb;
  u64 reconfigs = 0;
  u64 activations = 0;
  Picoseconds config_time = 0;
  os::VimAccounting vim;  // summed over jobs (fields listed in Add)
  os::VimServiceStats vim_service;

  // os.vcopd / os.service (service_open only).
  u64 dispatches = 0;
  u64 preemptions = 0;
  std::vector<Picoseconds> queue_wait;  // submitted -> started
  std::vector<Picoseconds> ring_wait;   // scheduled arrival -> submitted
  os::VcopServiceStats svc;
  Picoseconds window_end = 0;  // arrivals end: jobs_per_tenant mean gaps
  bool backlog_growing = false;
  double jain = 1.0;  // over per-tenant completions by window_end

  u64 failed() const { return refused + errors + wrong; }
  void Add(const os::ExecutionReport& report);
  /// FNV-1a over every simulated quantity and count above.
  u64 Digest() const;
};

/// paper_stream and gather_thrash: one blocking caller running each job
/// on a freshly booted system, as the fig8/fig9 benches do, so every
/// job starts at the same clock phase. The constructor is the set-up:
/// construction, FPGA_LOAD, staging (Allocate/Fill/FPGA_MAP_OBJECT),
/// software references and first touch of user memory. Run is the timed
/// phase: one FPGA_EXECUTE per job, back to back.
class BlockingPass {
 public:
  BlockingPass(const std::vector<Job>& jobs, SpanRecorder& spans);
  void Run();
  /// Checks every output against its reference and returns the totals.
  SimStats Finish();
  /// Every job's kernel timeline, laid end to end as the jobs ran.
  std::vector<os::TimelineEvent> timeline();

 private:
  struct Slot {
    std::unique_ptr<runtime::FpgaSystem> sys;
    std::vector<runtime::HostBuffer<u8>> buffers;
    std::vector<u8> expect;
  };

  const std::vector<Job>& jobs_;
  SpanRecorder& spans_;
  std::vector<Slot> slots_;
  SimStats stats_;
};

/// service_open: one platform, a vcopd daemon and the ring service, with
/// every tenant registered, staged and attached by the constructor.
class ServicePass {
 public:
  ServicePass(const ServiceInputs& inputs, SpanRecorder& spans);
  ~ServicePass();
  /// Publishes every tenant's jobs on the arrival schedule for an
  /// offered load of `rate` jobs per simulated second and drives the
  /// service until quiescent. Each completion is checked on arrival.
  void Run(u64 rate);
  SimStats Finish();
  std::vector<os::TimelineEvent> timeline() {
    return sys_.kernel().timeline().events();
  }

 private:
  struct Tenant;
  void Arrive(Tenant& t);
  void Reap(Tenant& t);

  const ServiceInputs& inputs_;
  SpanRecorder& spans_;
  runtime::FpgaSystem sys_;
  os::Vcopd daemon_;
  os::VcopService service_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  SimStats stats_;
};

}  // namespace vcop::perfbench
