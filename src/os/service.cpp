#include "os/service.h"

#include <algorithm>
#include <array>

#include "base/fault.h"
#include "base/table.h"

namespace vcop::os {

// ----- TokenBucket -----

TokenBucket::TokenBucket(u64 rate, u32 burst, Picoseconds now)
    : rate_(rate),
      capacity_(static_cast<unsigned __int128>(std::max<u32>(burst, 1)) *
                kPicosecondsPerSecond),
      budget_(capacity_),  // a fresh bucket is full: bursts are free
      last_(now) {}

void TokenBucket::Accrue(Picoseconds now) {
  if (now <= last_) return;
  budget_ += static_cast<unsigned __int128>(now - last_) * rate_;
  if (budget_ > capacity_) budget_ = capacity_;
  last_ = now;
}

bool TokenBucket::TryTake(Picoseconds now) {
  if (rate_ == 0) return true;
  Accrue(now);
  if (budget_ < kPicosecondsPerSecond) return false;
  budget_ -= kPicosecondsPerSecond;
  return true;
}

void TokenBucket::Refund() {
  if (rate_ == 0) return;
  budget_ += kPicosecondsPerSecond;
  if (budget_ > capacity_) budget_ = capacity_;
}

Picoseconds TokenBucket::NextTokenAt(Picoseconds now) {
  if (rate_ == 0) return now;
  Accrue(now);
  if (budget_ >= kPicosecondsPerSecond) return now;
  const unsigned __int128 deficit = kPicosecondsPerSecond - budget_;
  const u64 wait = static_cast<u64>(
      (deficit + rate_ - 1) / rate_);  // ceil: never wake a tick early
  return now + wait;
}

// ----- VcopService -----

VcopService::~VcopService() {
  for (const std::unique_ptr<Port>& port : ports_) {
    // NotFound only for a tenant unregistered since: it runs no more jobs.
    if (port != nullptr) {
      (void)daemon_.SetCompletionListener(port->tenant, nullptr);
    }
  }
}

u32 VcopService::RegisterDesign(const hw::Bitstream& bitstream) {
  for (usize i = 0; i < designs_.size(); ++i) {
    if (designs_[i].name == bitstream.name) return static_cast<u32>(i);
  }
  designs_.push_back(bitstream);
  return static_cast<u32>(designs_.size() - 1);
}

Status VcopService::AttachTenant(TenantId tenant,
                                 std::optional<u64> admit_rate,
                                 std::optional<u32> admit_burst) {
  if (FindPort(tenant) != nullptr) {
    return FailedPreconditionError(
        StrFormat("tenant %u is already attached", tenant));
  }
  // The daemon validates the id before the index is sized for it.
  VCOP_RETURN_IF_ERROR(daemon_.SetCompletionListener(
      tenant, [this, tenant](const JobResult& result,
                             std::optional<u64> cookie) {
        OnJobComplete(*FindPort(tenant), result, cookie);
      }));
  if (ports_.size() < tenant) ports_.resize(tenant);
  const Picoseconds now = daemon_.kernel().simulator().now();
  ports_[tenant - 1] = std::make_unique<Port>(
      tenant, config().ring_entries,
      admit_rate.value_or(config().admit_rate),
      admit_burst.value_or(config().admit_burst), now);
  return Status::Ok();
}

VcopService::Port* VcopService::FindPort(TenantId tenant) const {
  if (tenant == 0 || tenant > ports_.size()) return nullptr;
  return ports_[tenant - 1].get();
}

Status VcopService::Publish(TenantId tenant,
                            const RingDescriptor& descriptor) {
  Port* port = FindPort(tenant);
  if (port == nullptr) {
    return NotFoundError(StrFormat("tenant %u is not attached", tenant));
  }
  VCOP_RETURN_IF_ERROR(port->sq.Publish(descriptor));
  // Under a fault plan a later kick may be lost — make sure the
  // watchdog is running before the descriptor can strand.
  ArmRepoll();
  return Status::Ok();
}

Status VcopService::Kick(TenantId tenant) {
  Port* port = FindPort(tenant);
  if (port == nullptr) {
    return NotFoundError(StrFormat("tenant %u is not attached", tenant));
  }
  ++stats_.doorbell_kicks;
  if (daemon_.TenantQuarantined(tenant)) {
    ++stats_.doorbells_ignored;
    return Status::Ok();
  }
  FaultPlan* plan = daemon_.kernel().fault_plan();
  if (plan != nullptr && plan->ShouldInject(FaultSite::kDoorbellLost)) {
    // The posted doorbell write vanished. The descriptors are safe in
    // shared memory; the re-poll watchdog (armed at Publish) rescues
    // them one period later.
    ++stats_.doorbells_lost;
    return Status::Ok();
  }
  if (port->drain_scheduled) {
    ++stats_.doorbells_coalesced;
    return Status::Ok();
  }
  ScheduleDrain(*port, kDoorbellLatency);
  return Status::Ok();
}

void VcopService::ScheduleDrain(Port& port, Picoseconds delay) {
  port.drain_scheduled = true;
  Port* pp = &port;
  daemon_.kernel().simulator().ScheduleAfter(delay,
                                             [this, pp] { DrainPort(*pp); });
}

void VcopService::DrainPort(Port& port) {
  port.drain_scheduled = false;
  sim::Simulator& sim = daemon_.kernel().simulator();
  FaultPlan* plan = daemon_.kernel().fault_plan();
  u64 batch = 0;
  while (!port.sq.empty()) {
    const Picoseconds now = sim.now();
    if (!port.bucket.TryTake(now)) {
      // Bucket empty: pause the drain until the next token accrues.
      // Kicks arriving meanwhile coalesce into the scheduled retry.
      ++stats_.admission_deferrals;
      const Picoseconds at = port.bucket.NextTokenAt(now);
      ScheduleDrain(port, at > now ? at - now : 0);
      break;
    }
    if (plan != nullptr &&
        plan->ShouldInject(FaultSite::kDescriptorCorrupt)) {
      // Damage the descriptor where it sits in shared memory; the seal
      // goes stale and the checksum below rejects it.
      port.sq.Head().params[0] ^= 0xdeadbeefu;
    }
    RingDescriptor& head = port.sq.Head();
    if (!head.Intact() || head.design >= designs_.size() ||
        head.nparams > kRingMaxParams ||
        head.nrefs > kRingMaxObjectRefs) {
      RejectHead(port, ErrorCode::kInvalidArgument, now);
      continue;
    }
    // Object refs carry (object id << 32 | user VA): the tenant
    // re-points its mapped objects at per-submission buffers without a
    // map/unmap round trip. A bad ref rejects the descriptor with none
    // of its refs applied. The tenant has one object table, so refs
    // wait (FailedPrecondition) until its earlier jobs are done with it.
    std::array<ObjectRef, kRingMaxObjectRefs> refs;
    for (u32 i = 0; i < head.nrefs; ++i) {
      refs[i] = {static_cast<u32>(head.object_refs[i] >> 32),
                 static_cast<mem::UserAddr>(head.object_refs[i])};
    }
    const Status repoint = daemon_.RepointObjects(
        port.tenant, std::span<const ObjectRef>(refs.data(), head.nrefs));
    const bool table_busy = repoint.code() == ErrorCode::kFailedPrecondition;
    if (!repoint.ok() && !table_busy) {
      RejectHead(port, repoint.code(), now);
      continue;
    }
    const Result<Ticket> ticket =
        table_busy ? Result<Ticket>(repoint)
                   : daemon_.Submit(port.tenant, designs_[head.design],
                                    std::span<const u32>(head.params.data(),
                                                         head.nparams),
                                    head.cookie);
    if (ticket.ok()) {
      port.sq.Consume();
      ++batch;
      continue;
    }
    if (table_busy ||
        ticket.status().code() == ErrorCode::kResourceExhausted) {
      // The daemon's tenant queue (or its object table) is the next
      // backpressure stage: the descriptor stays in the ring and is
      // re-drained when one of this tenant's jobs, ringed or direct,
      // completes (OnJobComplete) or the next kick lands.
      ++stats_.daemon_backpressure;
      port.bucket.Refund();  // the job was not admitted after all
      break;
    }
    // Quarantine, unknown design, oversized parameters, ...: fail the
    // descriptor cleanly and keep draining.
    RejectHead(port, ticket.status().code(), now);
  }
  if (batch > 0) {
    ++stats_.drains;
    stats_.drained_jobs += batch;
    stats_.max_batch = std::max(stats_.max_batch, batch);
    daemon_.kernel().timeline().Record(TimelineKind::kRingDrain, sim.now(),
                                       0, {port.tenant, batch});
  }
}

void VcopService::RejectHead(Port& port, ErrorCode code, Picoseconds now) {
  CompletionDescriptor completion;
  completion.cookie = port.sq.Consume().cookie;
  completion.code = static_cast<u32>(code);
  completion.submitted_at = now;
  completion.started_at = now;
  completion.finished_at = now;
  ++stats_.descriptors_rejected;
  PushCompletion(port, completion);
}

void VcopService::PushCompletion(Port& port,
                                 const CompletionDescriptor& completion) {
  if (!port.overflow.empty() || !port.cq.Push(completion).ok()) {
    // The tenant stopped reaping; hold the completion in order behind
    // whatever already overflowed and let Reap() drain it back.
    port.overflow.push_back(completion);
    return;
  }
  ++stats_.completions_pushed;
  if (port.cq.suppressed()) {
    ++stats_.completions_suppressed;
  } else {
    ++stats_.completions_notified;
    if (port.notify) port.notify();
  }
}

void VcopService::OnJobComplete(Port& port, const JobResult& result,
                                std::optional<u64> cookie) {
  if (cookie.has_value()) {
    CompletionDescriptor completion;
    completion.cookie = *cookie;
    completion.code = static_cast<u32>(result.status.code());
    completion.preemptions = result.preemptions;
    completion.submitted_at = result.submitted_at;
    completion.started_at = result.started_at;
    completion.finished_at = result.finished_at;
    PushCompletion(port, completion);
  }
  // Flow control: the finished job frees a daemon-queue slot and the
  // tenant's object table, so anything parked in the submission ring
  // gets another drain.
  if (!port.sq.empty() && !port.drain_scheduled) ScheduleDrain(port, 0);
}

bool VcopService::HasCompletions(TenantId tenant) const {
  const Port* port = FindPort(tenant);
  return port != nullptr && !port->cq.empty();
}

Result<CompletionDescriptor> VcopService::Reap(TenantId tenant) {
  Port* port = FindPort(tenant);
  if (port == nullptr) {
    return NotFoundError(StrFormat("tenant %u is not attached", tenant));
  }
  if (port->cq.empty()) {
    return FailedPreconditionError("no completions pending");
  }
  const CompletionDescriptor completion = port->cq.Reap();
  while (!port->overflow.empty() &&
         port->cq.Push(port->overflow.front()).ok()) {
    port->overflow.pop_front();
    ++stats_.completions_pushed;
  }
  return completion;
}

bool VcopService::SetInterruptSuppression(TenantId tenant,
                                          bool suppressed) {
  Port* port = FindPort(tenant);
  VCOP_CHECK_MSG(port != nullptr, "tenant is not attached");
  return port->cq.SetSuppressed(suppressed);
}

void VcopService::SetCompletionNotifier(TenantId tenant,
                                        std::function<void()> fn) {
  Port* port = FindPort(tenant);
  VCOP_CHECK_MSG(port != nullptr, "tenant is not attached");
  port->notify = std::move(fn);
}

void VcopService::ArmRepoll() {
  if (repoll_armed_) return;
  FaultPlan* plan = daemon_.kernel().fault_plan();
  if (plan == nullptr || plan->empty()) return;
  repoll_armed_ = true;
  daemon_.kernel().simulator().ScheduleAfter(kRepollPeriod,
                                             [this] { RepollTick(); });
}

void VcopService::RepollTick() {
  repoll_armed_ = false;
  ++stats_.repoll_ticks;
  for (const std::unique_ptr<Port>& port : ports_) {
    if (port != nullptr && !port->sq.empty() && !port->drain_scheduled &&
        !daemon_.TenantQuarantined(port->tenant)) {
      // Descriptors sat a whole period without a drain: their doorbell
      // was lost. Drain them now.
      ++stats_.doorbells_recovered;
      ScheduleDrain(*port, 0);
    }
  }
  // Re-arm only while something could still need rescuing — an idle
  // service schedules no events, exactly like the VIM watchdog.
  if (AnyTransportWork() || daemon_.HasWork()) ArmRepoll();
}

bool VcopService::AnyTransportWork() const {
  for (const std::unique_ptr<Port>& port : ports_) {
    if (port == nullptr) continue;
    if (port->drain_scheduled) return true;
    // A quarantined tenant's stranded descriptors will never be
    // drained; counting them would keep the watchdog armed forever.
    if (!port->sq.empty() && !daemon_.TenantQuarantined(port->tenant)) {
      return true;
    }
  }
  return false;
}

Status VcopService::RunUntilQuiescent() {
  sim::Simulator& sim = daemon_.kernel().simulator();
  for (;;) {
    if (daemon_.HasWork()) {
      VCOP_RETURN_IF_ERROR(daemon_.RunOne());
      continue;
    }
    // Daemon idle: advance the timeline until a pending transport event
    // (doorbell drain, admission retry, watchdog tick, scheduled
    // arrival) gives it work, or nothing is left anywhere.
    if (!sim.RunUntil([this] { return daemon_.HasWork(); })) break;
  }
  // Restores the kernel's default VIM binding (no work left, so this
  // grants no further slices).
  return daemon_.RunUntilIdle();
}

const RingStats* VcopService::submission_stats(TenantId tenant) const {
  const Port* port = FindPort(tenant);
  return port == nullptr ? nullptr : &port->sq.stats();
}

}  // namespace vcop::os
