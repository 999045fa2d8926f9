#include "os/scheduler.h"

#include <algorithm>
#include <unordered_map>

#include "base/latency_histogram.h"
#include "base/table.h"

namespace vcop::os {

std::string_view ToString(ScheduleOrder order) {
  switch (order) {
    case ScheduleOrder::kFifo: return "fifo";
    case ScheduleOrder::kBatchBitstream: return "batch-by-bitstream";
  }
  return "?";
}

Picoseconds ScheduleReport::mean_turnaround() const {
  if (outcomes.empty()) return 0;
  unsigned __int128 sum = 0;
  for (const JobOutcome& o : outcomes) sum += o.turnaround();
  return static_cast<Picoseconds>(sum / outcomes.size());
}

usize ScheduleReport::failures() const {
  usize n = 0;
  for (const JobOutcome& o : outcomes) n += !o.status.ok();
  return n;
}

Picoseconds Percentile(std::vector<Picoseconds> samples, double q) {
  return PercentileNearestRank(std::move(samples), q);
}

Picoseconds ScheduleReport::max_wait() const {
  Picoseconds w = 0;
  for (const JobOutcome& o : outcomes) w = std::max(w, o.wait());
  return w;
}

std::vector<TenantFairness> ScheduleReport::per_pid() const {
  std::map<u32, std::vector<const JobOutcome*>> by_pid;
  for (const JobOutcome& o : outcomes) by_pid[o.pid].push_back(&o);

  std::vector<TenantFairness> result;
  result.reserve(by_pid.size());
  for (const auto& [pid, jobs] : by_pid) {
    TenantFairness f;
    f.pid = pid;
    f.jobs = jobs.size();
    std::vector<Picoseconds> turnarounds;
    turnarounds.reserve(jobs.size());
    for (const JobOutcome* o : jobs) {
      f.busy += o->finished_at - o->started_at;
      f.max_wait = std::max(f.max_wait, o->wait());
      f.max_turnaround = std::max(f.max_turnaround, o->turnaround());
      turnarounds.push_back(o->turnaround());
    }
    f.p50_turnaround = Percentile(turnarounds, 0.50);
    f.p99_turnaround = Percentile(std::move(turnarounds), 0.99);
    f.makespan_share =
        makespan == 0 ? 0.0
                      : static_cast<double>(f.busy) /
                            static_cast<double>(makespan);
    result.push_back(f);
  }
  return result;
}

FpgaScheduler::FpgaScheduler(Kernel& kernel,
                             std::map<std::string, hw::Bitstream> designs)
    : kernel_(kernel), designs_(std::move(designs)) {}

ScheduleReport FpgaScheduler::RunAll(std::vector<FpgaJob> jobs,
                                     ScheduleOrder order) {
  if (order == ScheduleOrder::kBatchBitstream) {
    // Stable partition by design, groups ordered by first submission —
    // within a group the submission order is preserved, so no job can
    // be starved by a later arrival of the same design. One pass builds
    // the first-seen rank of each design; the comparator is then an
    // integer compare instead of a linear scan per comparison.
    std::unordered_map<std::string, u32> group_index;
    for (const FpgaJob& job : jobs) {
      group_index.emplace(job.bitstream,
                          static_cast<u32>(group_index.size()));
    }
    std::stable_sort(
        jobs.begin(), jobs.end(),
        [&group_index](const FpgaJob& a, const FpgaJob& b) {
          return group_index.at(a.bitstream) < group_index.at(b.bitstream);
        });
  }

  ScheduleReport schedule;
  const Picoseconds batch_start = kernel_.simulator().now();

  for (FpgaJob& job : jobs) {
    JobOutcome outcome;
    outcome.pid = job.pid;
    outcome.bitstream = job.bitstream;
    outcome.submitted_at = batch_start;
    outcome.started_at = kernel_.simulator().now();

    const auto design = designs_.find(job.bitstream);
    if (design == designs_.end()) {
      outcome.status = NotFoundError(
          StrFormat("no design '%s' in the library", job.bitstream.c_str()));
      outcome.finished_at = kernel_.simulator().now();
      schedule.outcomes.push_back(std::move(outcome));
      continue;
    }

    // (Re)configure the fabric when the loaded design differs.
    const bool loaded_matches =
        kernel_.fabric().loaded() &&
        kernel_.fabric().current_bitstream().name == job.bitstream;
    if (!loaded_matches) {
      if (kernel_.fabric().loaded()) {
        const Status unload = kernel_.FpgaUnload();
        VCOP_CHECK_MSG(unload.ok(), unload.ToString());
      }
      const Status load = kernel_.FpgaLoad(design->second);
      if (!load.ok()) {
        outcome.status = load;
        outcome.finished_at = kernel_.simulator().now();
        schedule.outcomes.push_back(std::move(outcome));
        continue;
      }
      outcome.reconfigurations = 1;
      outcome.config_time = kernel_.last_load_time();
      schedule.total_config_time += outcome.config_time;
      ++schedule.reconfigurations;
    }

    // Clean slate for the job's mappings.
    kernel_.vim().objects().Clear();
    if (!job.run) {
      outcome.status = InvalidArgumentError("job has no body");
    } else {
      Result<ExecutionReport> result = job.run(kernel_);
      if (result.ok()) {
        outcome.report = result.value();
      } else {
        outcome.status = result.status();
      }
    }
    outcome.finished_at = kernel_.simulator().now();
    schedule.outcomes.push_back(std::move(outcome));
  }

  schedule.makespan = kernel_.simulator().now() - batch_start;
  const VimServiceStats& svc = kernel_.vim().service_stats();
  schedule.transfer_retries = svc.transfer_retries;
  schedule.watchdog_recoveries = svc.watchdog_recoveries;
  schedule.prefetch_issued = svc.prefetch_issued;
  schedule.prefetch_useful = svc.prefetch_useful;
  schedule.prefetch_wasted = svc.prefetch_wasted;
  schedule.coalesced_bursts = svc.coalesced_bursts;
  schedule.coalesced_pages = svc.coalesced_pages;
  return schedule;
}

}  // namespace vcop::os
