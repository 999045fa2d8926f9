#include "os/vcopd.h"

#include <algorithm>
#include <map>

#include "base/latency_histogram.h"
#include "base/log.h"
#include "base/table.h"

namespace vcop::os {

std::string_view ToString(ServicePolicy policy) {
  switch (policy) {
    case ServicePolicy::kFairShare: return "fair-share";
    case ServicePolicy::kFifoBatch: return "fifo-batch";
  }
  return "?";
}

std::vector<TenantFairness> ScheduleReport::per_pid() const {
  std::map<u32, std::vector<const JobResult*>> by_pid;
  for (const JobResult& o : outcomes) by_pid[o.pid].push_back(&o);

  std::vector<TenantFairness> result;
  result.reserve(by_pid.size());
  for (const auto& [pid, jobs] : by_pid) {
    TenantFairness f;
    f.pid = pid;
    f.jobs = jobs.size();
    std::vector<Picoseconds> turnarounds;
    turnarounds.reserve(jobs.size());
    for (const JobResult* o : jobs) {
      f.busy += o->finished_at - o->started_at;
      turnarounds.push_back(o->turnaround());
    }
    f.p50_turnaround = PercentileNearestRank(turnarounds, 0.50);
    f.p99_turnaround = PercentileNearestRank(std::move(turnarounds), 0.99);
    f.makespan_share =
        makespan == 0 ? 0.0
                      : static_cast<double>(f.busy) /
                            static_cast<double>(makespan);
    result.push_back(f);
  }
  return result;
}

Vcopd::Vcopd(Kernel& kernel, VcopdConfig config)
    : kernel_(kernel),
      config_(config),
      asids_(std::max<u32>(
          2, std::min<u32>(config.max_asids, 65536))) {
  Vim& vim = kernel_.vim();
  vim.set_tlb_tagging(config_.asid_tagging);
  vim.set_space_resolver([this](hw::Asid asid) { return FindSpace(asid); });
  // ASID generation rollover: when the allocator's cursor wraps past
  // the top of the tag space, a recycled tag could alias stale shared-
  // TLB entries installed under its previous owner. Flush everything.
  asids_.set_rollover_hook([this] { kernel_.shared_tlb().InvalidateAll(); });
}

Vcopd::~Vcopd() {
  Vim& vim = kernel_.vim();
  vim.set_space_resolver(nullptr);
  vim.set_preempt_check(nullptr);
  vim.set_preempt_handler(nullptr);
  vim.set_tlb_tagging(true);
  kernel_.Unbind();
  // A preempted job's design outlives the daemon in the kernel's pool;
  // the tenants' spaces go with the daemon.
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    if (t->inflight == nullptr) continue;
    t->inflight->design->Stop();
    kernel_.Retire(std::move(t->inflight->design));
  }
}

Result<TenantId> Vcopd::RegisterTenant(std::string name, u32 weight) {
  if (weight == 0) {
    return InvalidArgumentError("tenant weight must be >= 1");
  }
  Result<hw::Asid> asid = asids_.Allocate();
  if (!asid.ok()) return asid.status();

  auto tenant = std::make_unique<Tenant>();
  tenant->id = static_cast<TenantId>(tenants_.size()) + 1;
  tenant->weight = weight;
  tenant->space = std::make_unique<AddressSpace>(next_pid_++, asid.value(),
                                                 std::move(name));
  tenants_.push_back(std::move(tenant));
  return tenants_.back()->id;
}

Status Vcopd::UnregisterTenant(TenantId tenant) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  if (t->inflight != nullptr || !t->queue.empty()) {
    return FailedPreconditionError(StrFormat(
        "tenant %u has queued or in-flight work", tenant));
  }
  // A clean tenant holds no frames (the end-of-operation sweep released
  // them); scrub any surviving TLB entries before the tag can be
  // recycled.
  kernel_.shared_tlb().InvalidateAsid(t->space->asid());
  asids_.Release(t->space->asid());
  t->active = false;
  if (current_ == t) current_ = nullptr;
  return Status::Ok();
}

Status Vcopd::MapObject(TenantId tenant, hw::ObjectId id,
                        mem::UserAddr addr, u32 size_bytes, u32 elem_width,
                        Direction direction) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  if (!kernel_.user_memory().Contains(addr, size_bytes)) {
    return InvalidArgumentError(StrFormat(
        "object %u: [%u, +%u) is not in the process address space", id,
        addr, size_bytes));
  }
  MappedObject object;
  object.id = id;
  object.user_addr = addr;
  object.size_bytes = size_bytes;
  object.elem_width = elem_width;
  object.direction = direction;
  return t->space->objects().Map(object);
}

Status Vcopd::UnmapObject(TenantId tenant, hw::ObjectId id) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  return t->space->objects().Unmap(id);
}

Status Vcopd::RepointObject(TenantId tenant, hw::ObjectId id,
                            mem::UserAddr addr) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  const MappedObject* object = t->space->objects().Find(id);
  if (object == nullptr) {
    return NotFoundError(
        StrFormat("tenant %u has no object %u to re-point", tenant, id));
  }
  if (!kernel_.user_memory().Contains(addr, object->size_bytes)) {
    return InvalidArgumentError(StrFormat(
        "object %u: [%u, +%u) is not in the process address space", id,
        addr, object->size_bytes));
  }
  const Status s = t->space->objects().Repoint(id, addr);
  if (s.ok() && kernel_.vim().config().iommu) {
    // The virtual range the object names just moved: cached DMA
    // translations for this tenant may now point at the wrong pages.
    kernel_.vim().iommu().InvalidateAsid(t->space->asid());
  }
  return s;
}

Result<Ticket> Vcopd::Submit(
    TenantId tenant, const hw::Bitstream& bitstream,
    std::span<const u32> params,
    std::function<void(const JobResult&)> on_complete) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  if (t->quarantined) {
    return FailedPreconditionError(StrFormat(
        "tenant %u is quarantined after a fault-budget or hang abort",
        tenant));
  }
  // Admission control: validate what can be validated without running.
  const Result<Picoseconds> price =
      kernel_.fabric().PriceConfigure(bitstream);
  if (!price.ok()) return price.status();
  if (params.size() * 4 > kernel_.config().page_bytes) {
    return InvalidArgumentError(StrFormat(
        "%zu parameters exceed the parameter page (%u bytes)",
        params.size(), kernel_.config().page_bytes));
  }
  if (t->queue.size() >= config_.queue_depth) {
    ++stats_.rejected;
    return ResourceExhaustedError(StrFormat(
        "tenant %u submission queue is full (%u jobs) — back off and "
        "resubmit",
        tenant, config_.queue_depth));
  }

  auto job = std::make_unique<Job>();
  job->ticket = ++next_ticket_;
  job->tenant = tenant;
  job->bitstream = bitstream;
  job->params.assign(params.begin(), params.end());
  job->on_complete = std::move(on_complete);
  job->result.ticket = job->ticket;
  job->result.tenant = tenant;
  job->result.pid = t->space->pid();
  job->result.bitstream = bitstream.name;
  job->result.submitted_at = kernel_.simulator().now();
  t->queue.push_back(job.get());
  jobs_.push_back(std::move(job));
  ++stats_.submitted;
  return jobs_.back()->ticket;
}

const JobResult* Vcopd::Poll(Ticket ticket) const {
  const Job* job = FindJob(ticket);
  if (job == nullptr) return nullptr;
  if (job->state != VcopdJobState::kDone &&
      job->state != VcopdJobState::kFailed) {
    return nullptr;
  }
  return &job->result;
}

Result<JobResult> Vcopd::Wait(Ticket ticket) {
  Job* job = FindJob(ticket);
  if (job == nullptr) {
    return NotFoundError(StrFormat(
        "unknown ticket %llu", static_cast<unsigned long long>(ticket)));
  }
  while (job->state != VcopdJobState::kDone &&
         job->state != VcopdJobState::kFailed) {
    Tenant* next = PickNext();
    VCOP_CHECK_MSG(next != nullptr,
                   "ticket pending but no tenant is runnable");
    const Status status = RunSlice(*next);
    if (!status.ok()) return status;
  }
  return job->result;
}

bool Vcopd::HasWork() const {
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    if (t->active && Runnable(*t)) return true;
  }
  return false;
}

Status Vcopd::RunOne() {
  Tenant* next = PickNext();
  if (next == nullptr) return Status::Ok();
  return RunSlice(*next);
}

bool Vcopd::TenantQuarantined(TenantId tenant) const {
  if (tenant == 0 || tenant > tenants_.size()) return false;
  const Tenant& t = *tenants_[tenant - 1];
  return t.active && t.quarantined;
}

Status Vcopd::RunUntilIdle() {
  while (Tenant* next = PickNext()) {
    const Status status = RunSlice(*next);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

AddressSpace* Vcopd::FindSpace(hw::Asid asid) {
  if (asid == 0) return &kernel_.default_space();
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    if (t->active && t->space->asid() == asid) return t->space.get();
  }
  return nullptr;
}

ScheduleReport Vcopd::BuildScheduleReport() const {
  ScheduleReport report;
  Picoseconds first_submit = 0;
  Picoseconds last_finish = 0;
  bool any = false;
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->state != VcopdJobState::kDone &&
        job->state != VcopdJobState::kFailed) {
      continue;
    }
    const JobResult& r = job->result;
    if (!any || r.submitted_at < first_submit) first_submit = r.submitted_at;
    last_finish = std::max(last_finish, r.finished_at);
    any = true;
    report.outcomes.push_back(r);
  }
  if (any) report.makespan = last_finish - first_submit;
  return report;
}

Vcopd::Tenant* Vcopd::FindTenant(TenantId id) {
  if (id == 0 || id > tenants_.size()) return nullptr;
  Tenant* t = tenants_[id - 1].get();
  return t->active ? t : nullptr;
}

Vcopd::Job* Vcopd::FindJob(Ticket ticket) const {
  if (ticket == 0 || ticket > jobs_.size()) return nullptr;
  return jobs_[ticket - 1].get();
}

bool Vcopd::Runnable(const Tenant& tenant) const {
  return tenant.inflight != nullptr || !tenant.queue.empty();
}

bool Vcopd::AnyOtherRunnable(const Tenant* current) const {
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    if (t.get() == current || !t->active) continue;
    if (Runnable(*t)) return true;
  }
  return false;
}

const std::string& Vcopd::HeadDesign(const Tenant& tenant) {
  const Job* head = tenant.inflight != nullptr ? tenant.inflight
                                               : tenant.queue.front();
  return head->bitstream.name;
}

Vcopd::Tenant* Vcopd::PickNext() {
  if (config_.policy == ServicePolicy::kFifoBatch) {
    // Earliest ticket among queue heads, except that a head matching
    // the resident set jumps the line (greedy bit-stream batching,
    // generalised to the configuration cache: the active design ranks
    // above a dormant resident slot ranks above a cold design; within
    // one rank, arrival order holds). With a single slot the resident
    // set IS the active design, i.e. the classic head-match.
    const hw::FpgaFabric& fabric = kernel_.fabric();
    Tenant* best = nullptr;
    Ticket best_ticket = 0;
    u32 best_rank = 0;
    for (const std::unique_ptr<Tenant>& t : tenants_) {
      if (!t->active || !Runnable(*t)) continue;
      const std::string& design = HeadDesign(*t);
      const u32 rank = design == fabric.active_design() ? 2
                       : fabric.DesignResident(design)  ? 1
                                                        : 0;
      const Ticket ticket =
          (t->inflight != nullptr ? t->inflight : t->queue.front())->ticket;
      if (best == nullptr || rank > best_rank ||
          (rank == best_rank && ticket < best_ticket)) {
        best = t.get();
        best_ticket = ticket;
        best_rank = rank;
      }
    }
    return best;
  }

  // Design-affine deficit round-robin: stay with the current tenant
  // while it has both work and deficit, otherwise advance the ring,
  // topping up the picked tenant's deficit by quantum x weight.
  if (current_ != nullptr && current_->active && Runnable(*current_) &&
      current_->deficit > 0) {
    return current_;
  }
  usize start = 0;
  if (current_ != nullptr) {
    for (usize i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i].get() == current_) {
        start = i + 1;
        break;
      }
    }
  }
  // Strict ring order: the first runnable tenant from `start`.
  Tenant* fair = nullptr;
  usize fair_k = 0;
  for (usize k = 0; k < tenants_.size(); ++k) {
    Tenant* t = tenants_[(start + k) % tenants_.size()].get();
    if (!t->active || !Runnable(*t)) continue;
    fair = t;
    fair_k = k;
    break;
  }
  if (fair == nullptr) return nullptr;

  // Design affinity: when the strict choice would pay a full
  // reconfiguration, look further round the ring for a tenant whose
  // design is resident in a configuration slot — but never bypass a
  // tenant that has already been skipped `affinity_skip_budget` times
  // in a row (the DRR no-starvation bound).
  Tenant* pick = fair;
  const hw::FpgaFabric& fabric = kernel_.fabric();
  if (fair->affinity_skips < config_.affinity_skip_budget &&
      !fabric.DesignResident(HeadDesign(*fair))) {
    for (usize k = fair_k + 1; k < tenants_.size(); ++k) {
      Tenant* t = tenants_[(start + k) % tenants_.size()].get();
      if (!t->active || !Runnable(*t)) continue;
      if (t->affinity_skips >= config_.affinity_skip_budget) break;
      if (fabric.DesignResident(HeadDesign(*t))) {
        pick = t;
        break;
      }
    }
  }
  if (pick != fair) {
    // Every runnable tenant the bypass jumped over accrues a skip.
    for (usize k = fair_k; k < tenants_.size(); ++k) {
      Tenant* t = tenants_[(start + k) % tenants_.size()].get();
      if (t == pick) break;
      if (t->active && Runnable(*t)) ++t->affinity_skips;
    }
  }
  pick->affinity_skips = 0;

  pick->deficit = std::min<i64>(pick->deficit, 0) +
                  static_cast<i64>(config_.quantum) *
                      static_cast<i64>(pick->weight);
  current_ = pick;
  return pick;
}

Result<Picoseconds> Vcopd::SwitchDesign(Job& job) {
  hw::FpgaFabric& fabric = kernel_.fabric();
  if (fabric.active_design() == job.bitstream.name) return Picoseconds{0};
  // Submit validated the price, but the library could have changed
  // since; a stale design fails the job, not the daemon. AcquireDesign
  // re-validates on the miss path.
  const Result<hw::SlotAcquire> acquired = fabric.AcquireDesign(job.bitstream);
  if (!acquired.ok()) return acquired.status();
  const hw::SlotAcquire& got = acquired.value();
  if (got.reconfigured) {
    ++stats_.reconfigurations;
    stats_.total_config_time += got.time;
    ++job.result.reconfigurations;
    job.result.config_time += got.time;
    kernel_.timeline().Record(
        StrFormat("vcopd configure %s", job.bitstream.name.c_str()),
        "config", kernel_.simulator().now(), got.time, /*track=*/3);
  } else if (got.activated) {
    ++stats_.slot_activations;
    stats_.total_activation_time += got.time;
    ++job.result.slot_activations;
    job.result.config_time += got.time;
    kernel_.timeline().Record(
        StrFormat("vcopd activate %s", job.bitstream.name.c_str()),
        "config", kernel_.simulator().now(), got.time, /*track=*/3);
  }
  return got.time;
}

Status Vcopd::RunSlice(Tenant& tenant) {
  sim::Simulator& sim = kernel_.simulator();
  Vim& vim = kernel_.vim();

  const bool resuming = tenant.inflight != nullptr;
  Job* job;
  if (resuming) {
    job = tenant.inflight;
    VCOP_CHECK_MSG(job->state == VcopdJobState::kPreempted,
                   "in-flight job in unexpected state");
  } else {
    job = tenant.queue.front();
    tenant.queue.pop_front();
    tenant.inflight = job;
  }

  const Picoseconds dispatch_time = sim.now();
  const Result<Picoseconds> switched = SwitchDesign(*job);
  if (!switched.ok()) {
    // The configuration stream failed: the fabric keeps its previous
    // design, the job fails cleanly. A resumed job's run is stopped and
    // its saved context discarded without writing partial results back
    // to user memory.
    if (resuming) {
      job->design->Stop();
      kernel_.vim().FlushAsid(tenant.space->asid());
    } else {
      job->result.started_at = dispatch_time;
    }
    FinishJob(tenant, *job, switched.status());
    return Status::Ok();
  }
  const Picoseconds lead = switched.value();
  if (!resuming) {
    job->result.started_at = dispatch_time;
    job->design = kernel_.Instantiate(job->bitstream, tenant.space->asid());
  }
  kernel_.Bind(*tenant.space, *job->design);

  slice_preempted_ = false;
  slice_preempt_cost_ = 0;
  vim.set_preempt_check([this, &tenant] {
    if (config_.policy != ServicePolicy::kFairShare) return false;
    if (kernel_.simulator().now() - slice_started_at_ <
        config_.time_slice) {
      return false;
    }
    return AnyOtherRunnable(&tenant);
  });
  vim.set_preempt_handler([this](Picoseconds cost) {
    slice_preempted_ = true;
    slice_preempt_cost_ = cost;
  });

  const hw::TlbStats tlb_mark = kernel_.shared_tlb().stats();
  ++stats_.dispatches;

  if (!resuming) {
    const Result<Picoseconds> setup = kernel_.Start(job->params, lead);
    if (!setup.ok()) {
      vim.set_preempt_check(nullptr);
      vim.set_preempt_handler(nullptr);
      if (vim.fault_abort()) Quarantine(tenant);
      FinishJob(tenant, *job, setup.status());
      return Status::Ok();
    }
    job->state = VcopdJobState::kRunning;
    job->result.report.t_invoke += lead + setup.value();
    slice_started_at_ = dispatch_time + lead + setup.value();
    kernel_.timeline().Record(
        StrFormat("vcopd dispatch pid%u %s", tenant.space->pid(),
                  job->bitstream.name.c_str()),
        "exec", dispatch_time, lead + setup.value(), /*track=*/3);
  } else {
    job->state = VcopdJobState::kRunning;
    job->result.report.t_invoke += lead;
    // RestoreContext charges its own time to the space's accounting.
    const Picoseconds restore = vim.RestoreContext();
    const Picoseconds go = dispatch_time + lead + restore;
    slice_started_at_ = go;
    kernel_.timeline().Record(
        StrFormat("vcopd resume pid%u %s", tenant.space->pid(),
                  job->bitstream.name.c_str()),
        "exec", dispatch_time, lead + restore, /*track=*/3);
    // The preempting fault is still latched in the IMU: re-enter its
    // service now that the context is back.
    Vim* vimp = &vim;
    sim.ScheduleAt(go, [vimp] { vimp->OnPageFault(); });
  }

  const RunEnd end = kernel_.Run([this] { return slice_preempted_; });

  // Attribute this slice's shared-TLB traffic to the job.
  const hw::TlbStats tlb_now = kernel_.shared_tlb().stats();
  job->tlb_acc.lookups += tlb_now.lookups - tlb_mark.lookups;
  job->tlb_acc.hits += tlb_now.hits - tlb_mark.hits;
  job->tlb_acc.misses += tlb_now.misses - tlb_mark.misses;

  vim.set_preempt_check(nullptr);
  vim.set_preempt_handler(nullptr);

  if (!end.done) {
    // The decode + save service takes real time: advance the clock
    // before the next tenant is dispatched.
    sim.ScheduleAfter(slice_preempt_cost_, [] {});
    sim.RunToIdle();
    job->state = VcopdJobState::kPreempted;
    ++job->result.preemptions;
    ++stats_.preemptions;
  } else {
    // A fault-budget abort, hang abort or non-convergence quarantines
    // the tenant: its later Submits fail fast, other ASIDs keep going.
    if (!end.status.ok() && (vim.fault_abort() || !end.converged)) {
      Quarantine(tenant);
    }
    FinishJob(tenant, *job, end.status);
  }
  tenant.deficit -= static_cast<i64>(sim.now() - dispatch_time);
  return Status::Ok();
}

void Vcopd::Quarantine(Tenant& tenant) {
  if (tenant.quarantined) return;
  tenant.quarantined = true;
  ++stats_.quarantined;
  VCOP_LOG(kInfo, StrFormat("vcopd: quarantining tenant %u (pid %u) after "
                            "a fault abort",
                            tenant.id, tenant.space->pid()));
}

void Vcopd::FinishJob(Tenant& tenant, Job& job, Status status) {
  job.state =
      status.ok() ? VcopdJobState::kDone : VcopdJobState::kFailed;
  tenant.inflight = nullptr;

  JobResult& r = job.result;
  r.status = std::move(status);
  r.finished_at = kernel_.simulator().now();
  if (r.status.ok()) {
    kernel_.FillReport(r.report, r.started_at, *tenant.space, *job.design);
    r.report.tlb = job.tlb_acc;
    ++stats_.completed;
  } else {
    // No decomposition for a failed job: only what the VIM counted.
    r.report.vim = tenant.space->accounting;
    ++stats_.failed;
  }
  kernel_.Retire(std::move(job.design));
  kernel_.timeline().Record(
      StrFormat("vcopd complete pid%u %s%s", tenant.space->pid(),
                job.bitstream.name.c_str(),
                r.status.ok() ? "" : " (failed)"),
      "exec", r.finished_at, 0, /*track=*/3);
  if (job.on_complete) job.on_complete(r);
}

}  // namespace vcop::os
