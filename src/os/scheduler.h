// FPGA job scheduling across tasks.
//
// The paper's §5 points at the complementary problem of "managing the
// reconfigurable lattice across tasks" (Walder/Platzner; Dales) —
// "future system[s] may have to implement solutions for both". This
// module implements the OS side of that for the single-PLD platform:
// jobs from multiple processes queue for the exclusive fabric; the
// scheduler serialises them (FPGA_EXECUTE is blocking, so there is no
// intra-device preemption to exploit), reconfiguring the PLD whenever
// consecutive jobs need different designs.
//
// Reconfiguration is expensive — tens of milliseconds on the EPXA1's
// configuration port, comparable to whole executions — so ordering
// matters: batching jobs by bit-stream amortises it. Both orders are
// provided and measured in bench/abl_sharing.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/fabric.h"
#include "os/kernel.h"

namespace vcop::os {

/// One queued unit of coprocessor work.
struct FpgaJob {
  /// Submitting process (bookkeeping only; the platform model has a
  /// single address space shared by the batch).
  u32 pid = 0;
  /// Name of the design this job needs; must exist in the scheduler's
  /// design library.
  std::string bitstream;
  /// The job body: map objects and execute against the (already
  /// configured) kernel. The object table is cleared before each job.
  std::function<Result<ExecutionReport>(Kernel&)> run;
};

enum class ScheduleOrder : u8 {
  kFifo,            // strict submission order
  kBatchBitstream,  // group same-design jobs to amortise configuration
};

std::string_view ToString(ScheduleOrder order);

struct JobOutcome {
  u32 pid = 0;
  std::string bitstream;
  Status status;
  Picoseconds submitted_at = 0;
  Picoseconds started_at = 0;
  Picoseconds finished_at = 0;
  /// Full configurations this job paid, across every slice (an
  /// FPGA_LOAD under FpgaScheduler; vcopd also counts resumed slices
  /// whose design was evicted meanwhile).
  u32 reconfigurations = 0;
  /// Configuration-cache slot activations (vcopd with config_slots > 1).
  u32 slot_activations = 0;
  Picoseconds config_time = 0;
  /// Times the job was preempted at a fault boundary (always 0 under
  /// FpgaScheduler, which runs jobs to completion; vcopd fills it in).
  u32 preemptions = 0;
  ExecutionReport report;  // valid when status.ok()

  Picoseconds turnaround() const { return finished_at - submitted_at; }
  Picoseconds wait() const { return started_at - submitted_at; }
};

/// Nearest-rank percentile of a sample set (q in [0, 1]); 0 when empty.
Picoseconds Percentile(std::vector<Picoseconds> samples, double q);

/// Per-submitter fairness digest of a schedule, for starvation and
/// tail-latency analysis across competing tenants.
struct TenantFairness {
  u32 pid = 0;
  usize jobs = 0;
  Picoseconds busy = 0;  // sum of started->finished spans
  Picoseconds max_wait = 0;
  Picoseconds max_turnaround = 0;
  Picoseconds p50_turnaround = 0;
  Picoseconds p99_turnaround = 0;
  /// busy / makespan: the fraction of the batch this pid held the PLD.
  double makespan_share = 0.0;
};

struct ScheduleReport {
  std::vector<JobOutcome> outcomes;
  Picoseconds makespan = 0;
  Picoseconds total_config_time = 0;
  u32 reconfigurations = 0;
  // Configuration-cache rollup (vcopd with config_slots > 1; always 0
  // for FpgaScheduler batches and single-slot fleets).
  u32 slot_activations = 0;
  Picoseconds total_activation_time = 0;
  // Fault-recovery rollup across the batch (all 0 on fault-free runs).
  /// Page transfers the VIM re-ran after an injected bus error.
  u64 transfer_retries = 0;
  /// Lost interrupts recovered by the VIM watchdog.
  u64 watchdog_recoveries = 0;
  /// Tenants quarantined after exhausting a fault budget (vcopd only).
  u64 quarantines = 0;
  // Speculation/batching rollup across the batch (DESIGN.md §10).
  u64 prefetch_issued = 0;
  u64 prefetch_useful = 0;
  u64 prefetch_wasted = 0;
  u64 coalesced_bursts = 0;
  u64 coalesced_pages = 0;
  // Ring-transport rollup (VcopService::BuildScheduleReport only;
  // all 0 for direct-call batches).
  u64 doorbell_kicks = 0;
  u64 doorbells_coalesced = 0;
  u64 admission_deferrals = 0;
  u64 completions_suppressed = 0;

  Picoseconds mean_turnaround() const;
  usize failures() const;
  /// Longest time any job waited before starting.
  Picoseconds max_wait() const;
  /// Fairness digest per submitting pid, ordered by pid.
  std::vector<TenantFairness> per_pid() const;
};

class FpgaScheduler {
 public:
  /// `designs`: the bit-stream library jobs may request, by name.
  FpgaScheduler(Kernel& kernel,
                std::map<std::string, hw::Bitstream> designs);

  /// Runs every job to completion in the chosen order. Jobs whose
  /// design is unknown or whose body fails are reported failed; the
  /// batch continues.
  ScheduleReport RunAll(std::vector<FpgaJob> jobs, ScheduleOrder order);

 private:
  Kernel& kernel_;
  std::map<std::string, hw::Bitstream> designs_;
};

}  // namespace vcop::os
