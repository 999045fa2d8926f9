#include "os/vcopd.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>
#include <utility>

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

// A record is varints: tenant, pid, design index, status code,
// submission, start and finish (each after the first as the modular
// difference from the one before), preemptions, reconfigurations, slot
// activations, configuration time, the report word by word, then the
// status message's length and bytes.
static_assert(std::is_trivially_copyable_v<ExecutionReport> &&
              sizeof(ExecutionReport) % sizeof(u64) == 0);
constexpr usize kReportWords = sizeof(ExecutionReport) / sizeof(u64);
constexpr usize kMaxRecordBytes = (12 + kReportWords) * kMaxVarintBytes;

Ticket JobHistory::Open() {
  record_at_.push_back(kOpen);
  return record_at_.size();
}

void JobHistory::Keep(const JobResult& r) {
  VCOP_CHECK(r.ticket >= 1 && r.ticket <= record_at_.size() &&
             record_at_[r.ticket - 1] == kOpen);
  VCOP_CHECK_MSG(records_.size() < kOpen, "job history exceeds 4 GB");
  record_at_[r.ticket - 1] = static_cast<u32>(records_.size());

  u8 record[kMaxRecordBytes];
  u8* out = record;
  out = PutVarint(out, r.tenant);
  out = PutVarint(out, r.pid);
  out = PutVarint(out, NameId(designs_, r.bitstream));
  out = PutVarint(out, static_cast<u64>(r.status.code()));
  out = PutVarint(out, r.submitted_at);
  out = PutVarint(out, r.started_at - r.submitted_at);
  out = PutVarint(out, r.finished_at - r.started_at);
  out = PutVarint(out, r.preemptions);
  out = PutVarint(out, r.reconfigurations);
  out = PutVarint(out, r.slot_activations);
  out = PutVarint(out, r.config_time);
  u64 words[kReportWords];
  std::memcpy(words, &r.report, sizeof(words));
  for (const u64 word : words) out = PutVarint(out, word);
  const std::string& message = r.status.message();
  out = PutVarint(out, message.size());
  records_.Append(record, static_cast<usize>(out - record));
  records_.Append(reinterpret_cast<const u8*>(message.data()),
                  message.size());
}

bool JobHistory::Finished(Ticket ticket) const {
  return ticket >= 1 && ticket <= record_at_.size() &&
         record_at_[ticket - 1] != kOpen;
}

JobResult JobHistory::Get(Ticket ticket) const {
  VCOP_CHECK(Finished(ticket));
  PackedBytes::Reader in(records_, record_at_[ticket - 1]);
  JobResult r;
  r.ticket = ticket;
  r.tenant = static_cast<TenantId>(in.Varint());
  r.pid = static_cast<u32>(in.Varint());
  r.bitstream = designs_[in.Varint()];
  const auto code = static_cast<ErrorCode>(in.Varint());
  r.submitted_at = in.Varint();
  r.started_at = r.submitted_at + in.Varint();
  r.finished_at = r.started_at + in.Varint();
  r.preemptions = static_cast<u32>(in.Varint());
  r.reconfigurations = static_cast<u32>(in.Varint());
  r.slot_activations = static_cast<u32>(in.Varint());
  r.config_time = in.Varint();
  u64 words[kReportWords];
  for (u64& word : words) word = in.Varint();
  std::memcpy(&r.report, words, sizeof(words));
  std::string message(in.Varint(), '\0');
  for (char& c : message) c = static_cast<char>(in.Byte());
  if (code != ErrorCode::kOk) r.status = Status(code, std::move(message));
  return r;
}

std::vector<TenantFairness> ScheduleReport::per_pid() const {
  // Per pid: its busy time and every turnaround, in ticket order.
  std::map<u32, std::pair<Picoseconds, std::vector<Picoseconds>>> by_pid;
  for (const JobResult& o : outcomes) {
    auto& [busy, turnarounds] = by_pid[o.pid];
    busy += o.finished_at - o.started_at;
    turnarounds.push_back(o.turnaround());
  }

  std::vector<TenantFairness> result;
  result.reserve(by_pid.size());
  for (auto& [pid, jobs] : by_pid) {
    auto& [busy, turnarounds] = jobs;
    TenantFairness f;
    f.pid = pid;
    f.jobs = turnarounds.size();
    f.busy = busy;
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
          2, std::min<u32>(config.max_asids, 65536))),
      slots_at_start_(kernel.fabric().slot_stats()) {
  kernel_.vim().set_space_resolver(
      [this](hw::Asid asid) { return FindSpace(asid); });
  // ASID generation rollover: when the allocator's cursor wraps past
  // the top of the tag space, a recycled tag could alias stale shared-
  // TLB entries installed under its previous owner. Flush everything.
  asids_.set_rollover_hook([this] { kernel_.shared_tlb().InvalidateAll(); });
}

Vcopd::~Vcopd() {
  kernel_.vim().set_space_resolver(nullptr);
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
  return kernel_.MapObject(*t->space, id, addr, size_bytes, elem_width,
                           direction);
}

Status Vcopd::UnmapObject(TenantId tenant, hw::ObjectId id) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  return t->space->objects().Unmap(id);
}

Status Vcopd::RepointObjects(TenantId tenant,
                             std::span<const ObjectRef> refs) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  if (!refs.empty() && Runnable(*t)) {
    return FailedPreconditionError(StrFormat(
        "tenant %u has queued or in-flight work", tenant));
  }
  return kernel_.RepointObjects(*t->space, refs);
}

Result<Ticket> Vcopd::Submit(TenantId tenant,
                             const hw::Bitstream& bitstream,
                             std::span<const u32> params,
                             std::optional<u64> cookie) {
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
  JobResult& result = job->result;
  result.ticket = history_.Open();
  result.tenant = tenant;
  result.pid = t->space->pid();
  result.bitstream = bitstream.name;
  result.submitted_at = kernel_.simulator().now();
  job->bitstream = bitstream;
  job->params.assign(params.begin(), params.end());
  job->cookie = cookie;
  t->queue.push_back(std::move(job));
  ++stats_.submitted;
  return result.ticket;
}

Status Vcopd::SetCompletionListener(TenantId tenant,
                                    CompletionListener listener) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return NotFoundError(StrFormat("unknown tenant %u", tenant));
  }
  t->listener = std::move(listener);
  return Status::Ok();
}

std::optional<JobResult> Vcopd::Poll(Ticket ticket) const {
  if (!history_.Finished(ticket)) return std::nullopt;
  return history_.Get(ticket);
}

Result<JobResult> Vcopd::Wait(Ticket ticket) {
  if (ticket == 0 || ticket > history_.tickets()) {
    return NotFoundError(StrFormat(
        "unknown ticket %llu", static_cast<unsigned long long>(ticket)));
  }
  while (!history_.Finished(ticket)) {
    Tenant* next = PickNext();
    VCOP_CHECK_MSG(next != nullptr,
                   "ticket pending but no tenant is runnable");
    const Status status = RunSlice(*next);
    if (!status.ok()) return status;
  }
  return history_.Get(ticket);
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
  report.outcomes.history_ = &history_;
  std::vector<Ticket>& finished = report.outcomes.tickets_;
  for (Ticket ticket = 1; ticket <= history_.tickets(); ++ticket) {
    if (history_.Finished(ticket)) finished.push_back(ticket);
  }
  Picoseconds first_submit = ~Picoseconds{0};
  Picoseconds last_finish = 0;
  for (const JobResult& r : report.outcomes) {
    first_submit = std::min(first_submit, r.submitted_at);
    last_finish = std::max(last_finish, r.finished_at);
  }
  if (!finished.empty()) report.makespan = last_finish - first_submit;
  return report;
}

Vcopd::Tenant* Vcopd::FindTenant(TenantId id) {
  if (id == 0 || id > tenants_.size()) return nullptr;
  Tenant* t = tenants_[id - 1].get();
  return t->active ? t : nullptr;
}

const Vcopd::Job* Vcopd::OldestJob(const Tenant& tenant) {
  if (tenant.inflight != nullptr) return tenant.inflight.get();
  return tenant.queue.empty() ? nullptr : tenant.queue.front().get();
}

bool Vcopd::Runnable(const Tenant& tenant) const {
  return OldestJob(tenant) != nullptr;
}

bool Vcopd::AnyOtherRunnable(const Tenant* current) const {
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    if (t.get() == current || !t->active) continue;
    if (Runnable(*t)) return true;
  }
  return false;
}

const std::string& Vcopd::HeadDesign(const Tenant& tenant) {
  return OldestJob(tenant)->bitstream.name;
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
      const Ticket ticket = OldestJob(*t)->result.ticket;
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

VcopdStats Vcopd::stats() const {
  const hw::ConfigSlotStats& now = kernel_.fabric().slot_stats();
  VcopdStats stats = stats_;
  stats.reconfigurations = now.misses - slots_at_start_.misses;
  stats.slot_activations = now.hits - slots_at_start_.hits;
  stats.total_config_time =
      now.configure_time - slots_at_start_.configure_time;
  stats.total_activation_time =
      now.activation_time - slots_at_start_.activation_time;
  return stats;
}

Result<Picoseconds> Vcopd::SwitchDesign(Job& job) {
  // Submit validated the price, but the library could have changed
  // since; a stale design fails the job, not the daemon. AcquireDesign
  // re-validates on the miss path.
  const Result<hw::SlotAcquire> acquired =
      kernel_.fabric().AcquireDesign(job.bitstream);
  if (!acquired.ok()) return acquired.status();
  const hw::SlotAcquire& got = acquired.value();
  if (got.reconfigured) {
    ++job.result.reconfigurations;
    job.result.config_time += got.time;
    kernel_.timeline().Record(TimelineKind::kVcopdConfigure,
                              kernel_.simulator().now(), got.time, {},
                              job.bitstream.name);
  } else if (got.activated) {
    ++job.result.slot_activations;
    job.result.config_time += got.time;
    kernel_.timeline().Record(TimelineKind::kVcopdActivate,
                              kernel_.simulator().now(), got.time, {},
                              job.bitstream.name);
  }
  return got.time;
}

Status Vcopd::RunSlice(Tenant& tenant) {
  sim::Simulator& sim = kernel_.simulator();
  Vim& vim = kernel_.vim();

  // Between slices an in-flight job is a preempted one.
  const bool resuming = tenant.inflight != nullptr;
  if (!resuming) {
    tenant.inflight = std::move(tenant.queue.front());
    tenant.queue.pop_front();
  }
  Job* job = tenant.inflight.get();

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
    FinishJob(tenant, switched.status());
    return Status::Ok();
  }
  const Picoseconds lead = switched.value();
  if (!resuming) {
    job->result.started_at = dispatch_time;
    job->design = kernel_.Instantiate(job->bitstream, tenant.space->asid());
  }
  kernel_.Bind(*tenant.space, *job->design);
  const hw::TlbStats tlb_mark = kernel_.shared_tlb().stats();
  ++stats_.dispatches;

  if (!resuming) {
    const Result<Picoseconds> setup = kernel_.Start(job->params, lead);
    if (!setup.ok()) {
      if (vim.fault_abort()) Quarantine(tenant);
      FinishJob(tenant, setup.status());
      return Status::Ok();
    }
    job->result.report.t_invoke += lead + setup.value();
    slice_started_at_ = dispatch_time + lead + setup.value();
    kernel_.timeline().Record(TimelineKind::kVcopdDispatch, dispatch_time,
                              lead + setup.value(), {tenant.space->pid()},
                              job->bitstream.name);
  } else {
    job->result.report.t_invoke += lead;
    // RestoreContext charges its own time to the space's accounting.
    const Picoseconds restore = vim.RestoreContext();
    const Picoseconds go = dispatch_time + lead + restore;
    slice_started_at_ = go;
    kernel_.timeline().Record(TimelineKind::kVcopdResume, dispatch_time,
                              lead + restore, {tenant.space->pid()},
                              job->bitstream.name);
    // The preempting fault is still latched in the IMU: re-enter its
    // service now that the context is back.
    Vim* vimp = &vim;
    sim.ScheduleAt(go, [vimp] { vimp->OnPageFault(); });
  }

  // Fair share preempts the job at its first fault boundary past the
  // slice while another tenant waits; FIFO runs it to completion.
  const RunEnd end = kernel_.Run([this, &tenant] {
    return config_.policy == ServicePolicy::kFairShare &&
           kernel_.simulator().now() - slice_started_at_ >=
               config_.time_slice &&
           AnyOtherRunnable(&tenant);
  });

  // Attribute this slice's shared-TLB traffic to the job, the whole
  // delta as FPGA_EXECUTE reports it.
  job->tlb_acc += kernel_.shared_tlb().stats() - tlb_mark;

  if (!end.done) {
    ++job->result.preemptions;
    ++stats_.preemptions;
  } else {
    // A fault-budget abort, hang abort or non-convergence quarantines
    // the tenant: its later Submits fail fast, other ASIDs keep going.
    if (!end.status.ok() && (vim.fault_abort() || !end.converged)) {
      Quarantine(tenant);
    }
    FinishJob(tenant, end.status);
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

void Vcopd::FinishJob(Tenant& tenant, Status status) {
  // The job is freed on return, once its result is in the history.
  const std::unique_ptr<Job> job = std::move(tenant.inflight);
  JobResult& r = job->result;
  r.status = std::move(status);
  r.finished_at = kernel_.simulator().now();
  if (r.status.ok()) {
    kernel_.FillReport(r.report, r.started_at, *tenant.space, *job->design);
    r.report.tlb = job->tlb_acc;
    ++stats_.completed;
  } else {
    // No decomposition for a failed job: only what the VIM counted.
    r.report.vim = tenant.space->accounting;
    ++stats_.failed;
  }
  kernel_.Retire(std::move(job->design));
  kernel_.timeline().Record(r.status.ok() ? TimelineKind::kVcopdComplete
                                          : TimelineKind::kVcopdFailed,
                            r.finished_at, 0, {tenant.space->pid()},
                            job->bitstream.name);
  if (tenant.listener) tenant.listener(r, job->cookie);
  history_.Keep(r);
}

}  // namespace vcop::os
