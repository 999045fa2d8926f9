#include "os/vim.h"

#include <algorithm>

#include "base/log.h"
#include "base/table.h"

namespace vcop::os {

std::string_view ToString(PrefetchKind kind) {
  switch (kind) {
    case PrefetchKind::kNone: return "none";
    case PrefetchKind::kClean: return "clean";
  }
  return "?";
}

Vim::Vim(const CostModel& costs, mem::PageGeometry geometry,
         mem::DualPortRam& dp_ram, mem::UserMemory& user_memory,
         sim::Simulator& sim)
    : costs_(costs),
      geometry_(geometry),
      dp_ram_(dp_ram),
      user_memory_(user_memory),
      sim_(sim),
      transfers_(mem::AhbModel(costs.ahb, costs.cpu_clock), costs.cpu_clock,
                 mem::CopyMode::kDoubleCopy, costs.sdram_cycles_per_word,
                 costs.iommu_walk_cycles),
      pages_(geometry),
      clean_queued_(geometry.num_frames(), false) {
  transfers_.iommu().set_walker(
      [this](mem::IommuAsid asid, mem::UserAddr page_base) {
        return IommuWalk(asid, page_base);
      });
  Configure(VimConfig{});
}

void Vim::Configure(const VimConfig& config) {
  config_ = config;
  policy_ = MakePolicy(config.policy, config.seed);
  policy_->Reset(geometry_.num_frames());
  transfers_.set_mode(config.copy_mode);
}

bool Vim::IommuWalk(mem::IommuAsid asid, mem::UserAddr page_base) {
  AddressSpace* owner = ResolveSpace(asid);
  if (owner == nullptr) return false;
  const u64 page_end =
      static_cast<u64>(page_base) + mem::kUserPageBytes;
  for (const MappedObject& object : owner->objects().All()) {
    const u64 obj_end =
        static_cast<u64>(object.user_addr) + object.size_bytes;
    if (object.user_addr < page_end && page_base < obj_end) return true;
  }
  return false;
}

bool Vim::KernelCopyHeld(hw::ObjectId object, mem::VirtPage vpage) const {
  return transfers_.KeepsBounceCopies() &&
         space_->objects().version() == space_->transferred_objects_version &&
         space_->transferred.Contains(object, vpage);
}

void Vim::SetPolicy(std::unique_ptr<ReplacementPolicy> policy) {
  VCOP_CHECK_MSG(policy != nullptr, "null policy");
  policy_ = std::move(policy);
  policy_->Reset(geometry_.num_frames());
}

void Vim::BindImu(hw::Imu* imu) {
  imu_ = imu;
  if (imu_ == nullptr) return;
  imu_->set_fastforward_gate([this] { return FastForwardSafe(); });
  imu_->set_param_release_hook([this] {
    ReleaseParamFrame();
    // The coprocessor gave the page up for good: a preempted run must
    // not re-materialise it at resume.
    space_->params_live = false;
  });
}

void Vim::AttachSpace(AddressSpace* space) {
  VCOP_CHECK_MSG(space != nullptr, "attaching a null address space");
  space_ = space;
}

AddressSpace* Vim::ResolveSpace(hw::Asid asid) {
  if (space_ != nullptr && space_->asid() == asid) return space_;
  if (space_resolver_) return space_resolver_(asid);
  return nullptr;
}

u32 Vim::PageLength(const MappedObject& object, mem::VirtPage vpage) const {
  const u32 page_bytes = ObjectPageBytes(object);
  const u64 start = static_cast<u64>(vpage) * page_bytes;
  VCOP_CHECK_MSG(start < object.size_bytes, "page beyond object");
  const u64 remaining = object.size_bytes - start;
  return static_cast<u32>(std::min<u64>(remaining, page_bytes));
}

u32 Vim::ObjectPageBytes(const MappedObject& object) const {
  return object.page_bytes != 0 ? object.page_bytes
                                : geometry_.page_bytes();
}

u32 Vim::ObjectPageSpan(const MappedObject& object) const {
  return object.page_bytes != 0 ? geometry_.SpanOf(object.page_bytes) : 1;
}

mem::VirtPage Vim::ObjectPageOf(const MappedObject& object,
                                u64 offset) const {
  return static_cast<mem::VirtPage>(offset / ObjectPageBytes(object));
}

mem::UserAddr Vim::PageUserAddr(const MappedObject& object,
                                mem::VirtPage vpage) const {
  return object.user_addr +
         static_cast<mem::UserAddr>(static_cast<u64>(vpage) *
                                    ObjectPageBytes(object));
}

Result<Picoseconds> Vim::PrepareExecution(std::span<const u32> params) {
  if (imu_ == nullptr) {
    return FailedPreconditionError("FPGA_EXECUTE before FPGA_LOAD");
  }
  VCOP_CHECK_MSG(space_ != nullptr, "FPGA_EXECUTE with no space attached");
  const u32 param_bytes = static_cast<u32>(params.size() * 4);
  if (param_bytes > geometry_.page_bytes()) {
    return InvalidArgumentError(StrFormat(
        "%zu parameters exceed the parameter page (%u bytes)",
        params.size(), geometry_.page_bytes()));
  }
  for (const MappedObject& object : objects().All()) {
    if (!user_memory_.Contains(object.user_addr, object.size_bytes)) {
      return InvalidArgumentError(StrFormat(
          "object %u points outside the process address space", object.id));
    }
    if (object.page_bytes != 0) {
      if (object.page_bytes < geometry_.page_bytes()) {
        return InvalidArgumentError(StrFormat(
            "object %u page size %u is below the %u-byte frame granule",
            object.id, object.page_bytes, geometry_.page_bytes()));
      }
      const u32 span = geometry_.SpanOf(object.page_bytes);
      if (span > geometry_.num_frames()) {
        return InvalidArgumentError(StrFormat(
            "object %u page size %u exceeds the dual-port RAM (%u frames "
            "of %u bytes)",
            object.id, object.page_bytes, geometry_.num_frames(),
            geometry_.page_bytes()));
      }
    }
  }

  space_->aborted = false;
  space_->accounting = VimAccounting{};
  fault_abort_ = false;
  fault_service_pending_ = false;
  last_failure_ = Status::Ok();
  // The fabric may be shared (vcopd): clear only this space's residue
  // (defensive — a clean prior end of operation leaves none), discarding
  // stale data. Other spaces' frames and TLB entries stay resident. Where
  // the previous execution left the TLB recycle cursor is forgotten, so a
  // repeated execution repeats itself.
  FlushAsid(space_->asid());
  tlb_recycle_cursor_ = 0;
  space_->param_frame.reset();
  space_->transferred.Clear();
  space_->evicted_after_use.Clear();
  space_->transferred_objects_version = objects().version();
  space_->last_fault_page = {};
  space_->saved_params.assign(params.begin(), params.end());
  space_->params_live = false;
  // Background work left the fabric with the previous run
  // (EndBackgroundWork).
  VCOP_CHECK_MSG(cpu_busy_until_ == 0, "background work outlived its run");

  // Program the object descriptor table: the hardware contract of §3.1
  // ("the hardware designer implements a coprocessor having in mind the
  // programmer-declared data"). It starts empty, so an object unmapped
  // since this design's previous run, or mapped only by the tenant that
  // ran it before, faults as never mapped.
  imu_->ClearObjects();
  for (const MappedObject& object : objects().All()) {
    imu_->SetObjectWidth(object.id, object.elem_width);
    imu_->SetObjectLimit(object.id,
                         object.size_bytes / object.elem_width);
    imu_->SetObjectPageBytes(object.id, object.page_bytes);
  }
  imu_->SetObjectWidth(hw::kParamObject, 4);
  imu_->SetObjectLimit(hw::kParamObject,
                       static_cast<u32>(params.size()));
  imu_->SetObjectPageBytes(hw::kParamObject, 0);

  u64 setup_cycles =
      costs_.syscall_cycles +
      static_cast<u64>(objects().size()) * costs_.execute_setup_cycles_per_object;
  Picoseconds setup = costs_.Cycles(setup_cycles);

  if (!params.empty()) {
    // Other tenants may hold every frame: evicting a victim for the
    // parameter page is charged to this tenant's setup, and a victim
    // whose write-back fails aborts the run and fails the setup.
    Picoseconds dp_cost = 0;
    Picoseconds imu_cost = 0;
    if (!MapParamPage(params, dp_cost, imu_cost)) return last_failure_;
    setup += dp_cost + imu_cost;
  }
  ArmWatchdog();
  return setup;
}

void Vim::OnPageFault() {
  VCOP_CHECK_MSG(imu_ != nullptr, "fault with no IMU bound");
  if (space_->aborted) return;
  // Idempotent fault service: a second edge while the service for the
  // latched fault is already scheduled is a duplicate delivery, and an
  // edge with no pending fault in SR is a spurious re-fire — the real
  // handler reads SR before doing anything, so both are ignored for
  // free. Neither branch can trigger on fault-free hardware.
  if (fault_service_pending_) {
    ++service_stats_.duplicate_irqs_ignored;
    return;
  }
  if (!imu_->fault_pending()) {
    ++service_stats_.spurious_faults_ignored;
    return;
  }

  Picoseconds imu_cost = costs_.Cycles(costs_.interrupt_entry_cycles +
                                       costs_.fault_decode_cycles);
  Picoseconds dp_cost = 0;

  const u32 ar = imu_->ReadRegister(hw::ImuRegister::kAR);
  const hw::ObjectId oid = hw::ArObject(ar);
  const u32 index = hw::ArIndex(ar);

  if (imu_->limit_fault()) {
    Abort(OutOfRangeError(StrFormat(
        "IMU limit register: coprocessor accessed element %u of object "
        "%u beyond its programmed bound",
        index, oid)));
    return;
  }

  if (oid == hw::kParamObject && space_->saved_params.empty()) {
    // The parameter limit register of a run passed no parameters reads
    // 0, which the IMU takes as "no limit": fail the read here as the
    // limit register fails a read past the last parameter.
    Abort(OutOfRangeError(StrFormat(
        "coprocessor read parameter %u of a run passed no parameters",
        index)));
    return;
  }

  if (oid == hw::kParamObject && space_->param_frame.has_value()) {
    // The parameter page is resident but its translation fell out of
    // the TLB (entry recycled, or dropped across a preemption): a pure
    // TLB refill — the parameter object has no user-space backing.
    InstallTlbEntry(hw::kParamObject, 0, *space_->param_frame);
    imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
    ++acct().tlb_refills;
    acct().t_imu += imu_cost;
    acct().fault_service_us.Add(ToMicroseconds(imu_cost));
    ScheduleResolve(sim_.now() + imu_cost);
    return;
  }

  const MappedObject* object = objects().Find(oid);
  if (object == nullptr) {
    Abort(NotFoundError(StrFormat(
        "coprocessor accessed object %u which was never mapped "
        "(FPGA_MAP_OBJECT missing?)",
        oid)));
    return;
  }
  const u64 offset = static_cast<u64>(index) * object->elem_width;
  if (offset + object->elem_width > object->size_bytes) {
    Abort(OutOfRangeError(StrFormat(
        "coprocessor accessed element %u of object %u, beyond its %u bytes",
        index, oid, object->size_bytes)));
    return;
  }

  if (preempt_check_ && preempt_check_()) {
    // Time-slice expiry at a fault boundary: instead of servicing the
    // fault, save the context and hand the fabric back to the
    // dispatcher. The fault stays latched in the IMU (it never gets
    // ResolveFault); re-entering OnPageFault after RestoreContext
    // services it then.
    acct().t_imu += imu_cost;
    const Picoseconds save = SaveContext();
    if (space_->aborted) return;  // write-back failed mid-save
    ++acct().preemptions;
    if (timeline_ != nullptr) {
      timeline_->Record(TimelineKind::kPreempt, sim_.now(), imu_cost + save,
                        {space_->pid(), oid});
    }
    // Like a completion, the run ends once the service is over; until
    // then a second edge of this fault is a duplicate.
    fault_service_pending_ = true;
    sim_.ScheduleAt(sim_.now() + imu_cost + save, [this] {
      fault_service_pending_ = false;
      if (on_preempt_) on_preempt_();
    });
    return;
  }

  HarvestRecency();

  const mem::VirtPage vpage = ObjectPageOf(*object, offset);

  // The handler itself has to wait while the CPU finishes queued
  // background units (copy loops run interrupt-disabled).
  if (cpu_busy_until_ > sim_.now()) {
    const Picoseconds wait = cpu_busy_until_ - sim_.now();
    dp_cost += wait;
    acct().t_dp_wait += wait;
  }

  if (const std::optional<mem::FrameId> resident =
          pages_.FindResident(oid, vpage, space_->asid())) {
    // Soft fault: the page is in the dual-port RAM but its translation
    // fell out of the TLB (possible when tlb_entries < num_frames).
    InstallTlbEntry(oid, vpage, *resident);
    imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
    ++acct().tlb_refills;
  } else if (!MapPage(*object, vpage, dp_cost, imu_cost)) {
    return;
  }

  if (config_.prefetch == PrefetchKind::kClean) {
    // Background work, run on the CPU *after* the coprocessor resumes:
    // eager cleaning. The write-backs dominate the serial DP-management
    // time (output pages must all go back to user space); pushing them
    // into the background is where overlap pays.
    Picoseconds tail =
        std::max(sim_.now() + imu_cost + dp_cost, cpu_busy_until_);
    ScheduleBackgroundCleaning(tail);
    cpu_busy_until_ = tail;
  }

  acct().t_imu += imu_cost;
  acct().t_dp += dp_cost;
  acct().fault_service_us.Add(ToMicroseconds(imu_cost + dp_cost));
  if (timeline_ != nullptr) {
    timeline_->Record(TimelineKind::kFault, sim_.now(), imu_cost + dp_cost,
                      {oid, vpage});
  }
  ScheduleResolve(sim_.now() + imu_cost + dp_cost);
}

void Vim::ScheduleResolve(Picoseconds when) {
  hw::Imu* imu = imu_;
  fault_service_pending_ = true;
  const u64 epoch = epoch_;
  sim_.ScheduleAt(when, [this, imu, epoch] {
    if (epoch != epoch_) return;
    fault_service_pending_ = false;
    imu->ResolveFault();
  });
}

bool Vim::MapPage(const MappedObject& object, mem::VirtPage vpage,
                  Picoseconds& dp_cost, Picoseconds& imu_cost) {
  // A hard demand fault extends or breaks its object's sequential run;
  // the replacement policy may weigh which (DemandFault).
  const DemandPage demand{object.id, vpage,
                          space_->NoteDemandFault(object.id, vpage)};
  const u32 span = ObjectPageSpan(object);
  const std::optional<mem::FrameId> frame =
      AcquireFrame(span, &demand, dp_cost, imu_cost);
  if (!frame.has_value()) return false;
  ++acct().faults;

  if (NeedsLoad(object, vpage)) {
    const u32 len = PageLength(object, vpage);
    const bool reload = KernelCopyHeld(object.id, vpage);
    const mem::UserAddr src = PageUserAddr(object, vpage);
    const mem::TransferResult r = RetryTransfer("load", len, [&] {
      return transfers_.LoadPage(space_->asid(), user_memory_, src, dp_ram_,
                                 geometry_.FrameBase(*frame), len, reload);
    });
    dp_cost += r.time;
    if (r.bus_error) {
      if (!space_->aborted) Abort(last_failure_);
      return false;
    }
    CountLoad(len, reload);
    space_->transferred.Insert(object.id, vpage);
  }
  InstallPage(*frame, object.id, vpage, /*pinned=*/false, span);
  InstallTlbEntry(object.id, vpage, *frame);
  imu_cost +=
      costs_.Cycles(costs_.tlb_update_cycles + costs_.page_table_cycles);
  return true;
}

bool Vim::NeedsLoad(const MappedObject& object, mem::VirtPage vpage) const {
  // The OUT hint skips the load only on a page's *first* touch; once a
  // page has been written back, later faults must reload it or the
  // final write-back would clobber earlier results with stale bytes.
  return object.direction != Direction::kOut ||
         space_->transferred.Contains(object.id, vpage);
}

void Vim::CountLoad(u32 len, bool reload) {
  ++acct().loads;
  if (reload) ++acct().kernel_copy_loads;
  acct().bytes_loaded += len;
}

std::optional<mem::FrameId> Vim::AcquireFrame(u32 span,
                                              const DemandPage* demand,
                                              Picoseconds& dp_cost,
                                              Picoseconds& imu_cost) {
  if (span > 1) {
    if (const std::optional<mem::FrameId> run = pages_.FindFreeRun(span)) {
      return run;
    }
    const std::optional<mem::FrameId> start = SuperpageWindow(span);
    if (!start.has_value()) {
      Abort(ResourceExhaustedError(StrFormat(
          "no %u-frame window available for a %u-byte superpage "
          "(pinned frames fragment the dual-port RAM)",
          span, span * geometry_.page_bytes())));
      return std::nullopt;
    }
    std::set<mem::FrameId> victims;
    for (mem::FrameId f = *start; f < *start + span; ++f) {
      const FrameState& s = pages_.frame(f);
      if (s.in_use) victims.insert(s.continuation ? s.head : f);
    }
    for (const mem::FrameId v : victims) {
      EvictFrame(v, dp_cost, imu_cost);
      if (space_->aborted) return std::nullopt;
    }
    return start;
  }

  if (const std::optional<mem::FrameId> free = pages_.FindFree()) {
    return free;
  }
  const std::vector<bool> evictable = pages_.EvictableMask();
  if (std::find(evictable.begin(), evictable.end(), true) ==
      evictable.end()) {
    Abort(ResourceExhaustedError(
        "no evictable interface page (all frames pinned)"));
    return std::nullopt;
  }
  const mem::FrameId victim =
      demand == nullptr
          ? policy_->PickVictim(evictable)
          : policy_->PickDemandVictim(
                evictable,
                DemandFault{demand->object, demand->vpage, demand->previous,
                            hot_frames_,
                            space_->evicted_after_use.Contains(
                                demand->object, demand->vpage)});
  EvictFrame(victim, dp_cost, imu_cost);
  if (space_->aborted) return std::nullopt;
  return victim;
}

std::optional<mem::FrameId> Vim::SuperpageWindow(u32 span) const {
  // Deterministic window scan: the span-wide window whose clearing
  // evicts the fewest *hot* mappings (pages the coprocessor touched
  // since the last recency harvest), then the fewest mappings overall
  // (ties: lowest start). Windows overlapping a pinned frame are
  // infeasible. Hot-avoidance is what keeps two streaming superpage
  // objects from ping-ponging each other out of memory: without it the
  // scan would deterministically clear the lowest window every fault,
  // which is exactly where the other object's active page lives.
  std::optional<mem::FrameId> best_start;
  usize best_hot = 0;
  usize best_cost = 0;
  for (mem::FrameId start = 0; start + span <= geometry_.num_frames();
       ++start) {
    std::set<mem::FrameId> heads;
    bool feasible = true;
    for (mem::FrameId f = start; f < start + span; ++f) {
      const FrameState& s = pages_.frame(f);
      if (!s.in_use) continue;
      const mem::FrameId head = s.continuation ? s.head : f;
      if (pages_.frame(head).pinned) {
        feasible = false;
        break;
      }
      heads.insert(head);
    }
    if (!feasible) continue;
    usize hot = 0;
    for (const mem::FrameId h : heads) {
      if (h < hot_frames_.size() && hot_frames_[h]) ++hot;
    }
    if (!best_start.has_value() || hot < best_hot ||
        (hot == best_hot && heads.size() < best_cost)) {
      best_start = start;
      best_hot = hot;
      best_cost = heads.size();
    }
  }
  return best_start;
}

void Vim::InstallPage(mem::FrameId frame, hw::ObjectId object,
                      mem::VirtPage vpage, bool pinned, u32 span) {
  pages_.Install(frame, object, vpage, pinned, space_->asid(), span);
  policy_->OnInstalled(frame, object, vpage);
}

void Vim::FreeFrame(mem::FrameId frame) {
  pages_.Release(frame);
  clean_queued_[frame] = false;
  policy_->OnFreed(frame);
}

bool Vim::MapParamPage(std::span<const u32> params, Picoseconds& dp_cost,
                       Picoseconds& imu_cost) {
  const std::optional<mem::FrameId> frame =
      AcquireFrame(/*span=*/1, nullptr, dp_cost, imu_cost);
  if (!frame.has_value()) return false;
  for (usize i = 0; i < params.size(); ++i) {
    dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor,
                      geometry_.FrameBase(*frame) + static_cast<u32>(4 * i),
                      4, params[i]);
  }
  InstallPage(*frame, hw::kParamObject, 0, /*pinned=*/true, /*span=*/1);
  InstallTlbEntry(hw::kParamObject, 0, *frame);
  space_->param_frame = frame;
  space_->params_live = true;
  dp_cost += transfers_.PriceParams(static_cast<u32>(params.size() * 4));
  return true;
}

void Vim::ReleaseParamFrame() {
  if (!space_->param_frame.has_value()) return;
  FreeFrame(*space_->param_frame);
  space_->param_frame.reset();
}

void Vim::EvictFrame(mem::FrameId frame, Picoseconds& dp_cost,
                     Picoseconds& imu_cost) {
  // Fold the live TLB entry's dirty and accessed bits into the page
  // state first.
  if (const std::optional<u32> e = imu_->tlb().FindByFrame(frame)) {
    const hw::TlbEntry old = imu_->tlb().Invalidate(*e);
    if (old.dirty) pages_.MarkDirty(frame);
    if (old.accessed || old.dirty) pages_.MarkReferenced(frame);
  }
  const FrameState state = pages_.frame(frame);
  AddressSpace* owner = ResolveSpace(state.asid);
  VCOP_CHECK_MSG(owner != nullptr, "evicting a frame of an unknown space");
  // Only the attached space's own evictions of pages it used count
  // towards its re-faults; another tenant's eviction says nothing about
  // this one's working set.
  if (state.referenced && owner == space_) {
    space_->evicted_after_use.Insert(state.object, state.vpage);
  }
  const MappedObject* object = owner->objects().Find(state.object);
  VCOP_CHECK_MSG(object != nullptr,
                 "evicting a frame of an unknown object");
  if (state.dirty) {
    if (object->direction == Direction::kIn) {
      // The hint says the coprocessor only reads this object; honour it
      // and drop the (buggy) writes, but record that it happened.
      ++owner->accounting.dirty_in_pages_dropped;
    } else if (!WriteBack(frame, *owner, *object, dp_cost)) {
      // The dirty page cannot leave the fabric, so the run fails. The
      // abort flushes the attached space's frames, this one among them
      // when it is the space's own; a foreign owner keeps its page.
      if (!space_->aborted) Abort(last_failure_);
      return;
    }
  }
  FreeFrame(frame);
  ++acct().evictions;
  imu_cost += costs_.Cycles(costs_.page_table_cycles);
}

bool Vim::WriteBack(mem::FrameId frame, AddressSpace& owner,
                    const MappedObject& object, Picoseconds& dp_cost) {
  // Bookkeeping goes to the owning space (its data left the fabric);
  // the transfer time extends the *current* service.
  const FrameState& state = pages_.frame(frame);
  const u32 len = PageLength(object, state.vpage);
  const mem::UserAddr dst = PageUserAddr(object, state.vpage);
  const mem::TransferResult r = RetryTransfer("store", len, [&] {
    return transfers_.StorePage(state.asid, dp_ram_,
                                geometry_.FrameBase(frame), user_memory_, dst,
                                len);
  });
  dp_cost += r.time;
  if (r.bus_error) return false;
  ++owner.accounting.writebacks;
  owner.accounting.bytes_written_back += len;
  owner.transferred.Insert(state.object, state.vpage);
  return true;
}

void Vim::InstallTlbEntry(hw::ObjectId object, mem::VirtPage vpage,
                          mem::FrameId frame) {
  hw::Tlb& tlb = imu_->tlb();
  std::optional<u32> slot = tlb.FindFree();
  if (!slot.has_value()) {
    // Recycle a TLB slot round-robin (entries are a cache over the page
    // table when the TLB is smaller than the frame count); keep the
    // recycled entry's dirty information in the page state.
    const u32 victim = tlb_recycle_cursor_++ % tlb.num_entries();
    const hw::TlbEntry old = tlb.Invalidate(victim);
    if (old.valid && old.dirty && pages_.frame(old.frame).in_use) {
      pages_.MarkDirty(old.frame);
    }
    slot = victim;
  }
  tlb.Install(*slot, object, vpage, frame, space_->asid());
}

void Vim::ScheduleBackgroundCleaning(Picoseconds& tail) {
  // Budget per fault service: a couple of pages, so a burst of dirty
  // pages cannot starve fault handling behind a long copy queue.
  u32 budget = 2;
  for (const mem::FrameId f : pages_.InUseFramesOf(space_->asid())) {
    if (budget == 0) break;
    const FrameState state = pages_.frame(f);
    // A page already queued stays dirty until its unit lands: a second
    // unit would write it back twice.
    if (state.pinned || clean_queued_[f]) continue;
    if (f < hot_frames_.size() && hot_frames_[f]) continue;
    if (!FrameDirty(f)) continue;
    const MappedObject* object = space_->objects().Find(state.object);
    if (object == nullptr || object->direction == Direction::kIn) continue;

    const u32 len = PageLength(*object, state.vpage);
    const Picoseconds unit_cost =
        transfers_.PriceTransfer(len) + costs_.Cycles(costs_.page_table_cycles);
    tail = std::max(tail, sim_.now()) + unit_cost;
    acct().t_dp_overlapped += unit_cost;
    clean_queued_[f] = true;
    --budget;
    if (timeline_ != nullptr) {
      timeline_->Record(TimelineKind::kClean, tail - unit_cost, unit_cost,
                        {state.object, state.vpage});
    }

    const u64 epoch = epoch_;
    const hw::ObjectId oid = state.object;
    const mem::VirtPage vpage = state.vpage;
    const mem::UserAddr dst = PageUserAddr(*object, vpage);
    sim_.ScheduleAt(tail, [this, epoch, f, oid, vpage, dst, len] {
      if (epoch != epoch_) return;
      const FrameState now_state = pages_.frame(f);
      // The frame may have been evicted/repurposed meanwhile — the
      // eviction already wrote the data back synchronously.
      if (!now_state.in_use || now_state.object != oid ||
          now_state.vpage != vpage) {
        return;
      }
      clean_queued_[f] = false;
      // The unit keeps the price it was queued at. A store that fails
      // leaves the page dirty: its eviction or the end-of-operation sweep
      // writes it back through the retry path.
      const mem::TransferResult r =
          transfers_.StorePage(now_state.asid, dp_ram_, geometry_.FrameBase(f),
                               user_memory_, dst, len);
      if (r.bus_error || r.iommu_fault) return;
      space_->transferred.Insert(oid, vpage);
      pages_.ClearDirty(f);
      if (const std::optional<u32> entry = imu_->tlb().FindByFrame(f)) {
        imu_->tlb().ClearDirty(*entry);
      }
      ++acct().cleaned_pages;
      acct().bytes_written_back += len;
    });
  }
}

void Vim::HarvestRecency() {
  hot_frames_.assign(geometry_.num_frames(), false);
  for (const mem::FrameId f : imu_->tlb().HarvestAccessed()) {
    policy_->OnTouched(f);
    pages_.MarkReferenced(f);
    if (f < hot_frames_.size()) hot_frames_[f] = true;
  }
}

bool Vim::FrameDirty(mem::FrameId frame) const {
  if (pages_.frame(frame).dirty) return true;
  const std::optional<u32> entry = imu_->tlb().FindByFrame(frame);
  return entry.has_value() && imu_->tlb().entry(*entry).dirty;
}

void Vim::OnEndOfOperation() {
  VCOP_CHECK_MSG(imu_ != nullptr, "end-of-operation with no IMU bound");
  if (space_->aborted) return;
  // Duplicate-delivery safety: the sweep acknowledges the interrupt
  // (AckEnd clears SR.end), so a second edge finds the bit clear and is
  // ignored — re-running the sweep would wake the caller twice.
  if ((imu_->ReadRegister(hw::ImuRegister::kSR) & hw::kSrEndPending) == 0) {
    ++service_stats_.duplicate_irqs_ignored;
    return;
  }
  ++watchdog_epoch_;  // the run is over; kill any pending watchdog tick

  Picoseconds imu_cost = costs_.Cycles(costs_.interrupt_entry_cycles);
  Picoseconds dp_cost = 0;
  EndBackgroundWork(dp_cost);

  // Merge live dirty bits, then drop the translations. Only this
  // space's entries and frames are touched, so on a shared fabric
  // (vcopd) other tenants' working sets survive.
  hw::Tlb& tlb = imu_->tlb();
  const hw::Asid asid = space_->asid();
  for (u32 i = 0; i < tlb.num_entries(); ++i) {
    const hw::TlbEntry e = tlb.entry(i);
    if (e.valid && e.asid == asid && e.dirty &&
        pages_.frame(e.frame).in_use) {
      pages_.MarkDirty(e.frame);
    }
  }
  tlb.InvalidateAsid(asid);

  // "The interface manager copies back to user space all the dirty data
  // currently residing in the dual-port memory." (§3.3)
  for (const mem::FrameId f : pages_.InUseFramesOf(asid)) {
    const FrameState state = pages_.frame(f);
    if (state.object == hw::kParamObject) {
      ReleaseParamFrame();
      continue;
    }
    const MappedObject* object = space_->objects().Find(state.object);
    VCOP_CHECK_MSG(object != nullptr, "resident page of unknown object");
    if (state.dirty) {
      if (object->direction == Direction::kIn) {
        ++acct().dirty_in_pages_dropped;
      } else if (!WriteBack(f, *space_, *object, dp_cost)) {
        acct().t_imu += imu_cost;
        acct().t_dp += dp_cost;
        if (!space_->aborted) Abort(last_failure_);
        return;
      }
    }
    FreeFrame(f);
    imu_cost += costs_.Cycles(costs_.page_table_cycles);
  }
  space_->params_live = false;

  // The run's DMA window is over: shoot down its IO-TLB entries so
  // nothing can translate through them afterwards (the write-back
  // sweep above was the last legitimate user).
  transfers_.Invalidate(asid);

  imu_->AckEnd();
  const Picoseconds wake = costs_.Cycles(costs_.wakeup_cycles);
  acct().t_imu += imu_cost;
  acct().t_dp += dp_cost;
  acct().t_wakeup += wake;
  if (timeline_ != nullptr) {
    timeline_->Record(TimelineKind::kSweep, sim_.now(),
                      imu_cost + dp_cost + wake);
  }

  sim_.ScheduleAt(sim_.now() + imu_cost + dp_cost + wake, [this] {
    if (on_complete_) on_complete_();
  });
}

Picoseconds Vim::SaveContext() {
  VCOP_CHECK_MSG(imu_ != nullptr, "context save with no IMU bound");
  VCOP_CHECK_MSG(space_ != nullptr, "context save with no space attached");
  const hw::Asid asid = space_->asid();
  hw::Tlb& tlb = imu_->tlb();
  Picoseconds dp_cost = 0;
  Picoseconds imu_cost = costs_.Cycles(costs_.context_save_cycles);

  // The tenant leaves the fabric; neither its watchdog nor its
  // background work may reach into some other tenant's slice.
  // RestoreContext re-arms the watchdog.
  ++watchdog_epoch_;
  EndBackgroundWork(dp_cost);

  HarvestRecency();

  // Release the pinned parameter frame; a resume re-materialises it from
  // the saved words (params_live stays true), so holding a pinned frame
  // across the switched-out window would starve the other tenants.
  if (space_->param_frame.has_value()) {
    if (const std::optional<u32> entry =
            tlb.Probe(hw::kParamObject, 0, asid)) {
      tlb.Invalidate(*entry);
    }
    ReleaseParamFrame();
    imu_cost += costs_.Cycles(costs_.page_table_cycles);
  }

  // The translations stay installed under the tenant's ASID; a fault
  // refills any that an intervening tenant recycles. Dirty pages are
  // written back eagerly, so a foreign eviction of one of our frames
  // while we are switched out is a free drop.
  for (u32 i = 0; i < tlb.num_entries(); ++i) {
    const hw::TlbEntry e = tlb.entry(i);
    if (e.valid && e.asid == asid && e.object != hw::kParamObject &&
        e.dirty && pages_.frame(e.frame).in_use) {
      pages_.MarkDirty(e.frame);
    }
  }
  for (const mem::FrameId f : pages_.InUseFramesOf(asid)) {
    const FrameState state = pages_.frame(f);
    if (!state.dirty) continue;
    const MappedObject* object = space_->objects().Find(state.object);
    VCOP_CHECK_MSG(object != nullptr, "resident page of unknown object");
    // kIn pages never reach user space; if a foreign eviction drops
    // one later it is counted there, not here.
    if (object->direction == Direction::kIn) continue;
    if (!WriteBack(f, *space_, *object, dp_cost)) {
      if (!space_->aborted) Abort(last_failure_);
      acct().t_dp += dp_cost;
      acct().t_imu += imu_cost;
      return dp_cost + imu_cost;
    }
    ++service_stats_.pages_written_back_on_save;
    pages_.ClearDirty(f);
    if (const std::optional<u32> entry = tlb.FindByFrame(f)) {
      tlb.ClearDirty(*entry);
    }
  }

  // The tenant's DMA window closes with its slice: shoot its IO-TLB
  // entries down so a later tenant cannot translate through them.
  transfers_.Invalidate(asid);

  // Back on the fabric, the tenant's evictions start over: what other
  // tenants did meanwhile decides which of its pages are still resident.
  space_->evicted_after_use.Clear();

  ++service_stats_.context_saves;
  acct().t_dp += dp_cost;
  acct().t_imu += imu_cost;
  return dp_cost + imu_cost;
}

Picoseconds Vim::RestoreContext() {
  VCOP_CHECK_MSG(imu_ != nullptr, "context restore with no IMU bound");
  VCOP_CHECK_MSG(space_ != nullptr,
                 "context restore with no space attached");
  Picoseconds dp_cost = 0;
  Picoseconds imu_cost = costs_.Cycles(costs_.context_restore_cycles);

  // Re-materialise the parameter page released at save time.
  if (space_->params_live && !space_->param_frame.has_value() &&
      MapParamPage(space_->saved_params, dp_cost, imu_cost)) {
    imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
  }

  ++service_stats_.context_restores;
  acct().t_dp += dp_cost;
  acct().t_imu += imu_cost;
  ArmWatchdog();
  return dp_cost + imu_cost;
}

void Vim::FlushAsid(hw::Asid asid) {
  VCOP_CHECK_MSG(imu_ != nullptr, "flush with no IMU bound");
  imu_->tlb().InvalidateAsid(asid);
  for (const mem::FrameId f : pages_.InUseFramesOf(asid)) FreeFrame(f);
  if (AddressSpace* owner = ResolveSpace(asid)) owner->param_frame.reset();
  // The ASID's interface state is gone, and with it every cached DMA
  // translation.
  transfers_.Invalidate(asid);
}

void Vim::EndBackgroundWork(Picoseconds& dp_cost) {
  ++epoch_;
  clean_queued_.assign(clean_queued_.size(), false);
  if (cpu_busy_until_ > sim_.now()) {
    const Picoseconds wait = cpu_busy_until_ - sim_.now();
    dp_cost += wait;
    acct().t_dp_wait += wait;
  }
  cpu_busy_until_ = 0;
}

void Vim::Abort(Status status) {
  VCOP_CHECK_MSG(!status.ok(), "abort with OK status");
  last_failure_ = status;
  space_->aborted = true;
  ++watchdog_epoch_;
  fault_service_pending_ = false;
  // A failed run reports no time split, so the exit's wait is dropped.
  Picoseconds dp_cost = 0;
  EndBackgroundWork(dp_cost);
  VCOP_LOG(kWarning, "VIM aborting run: " + status.ToString());
  imu_->HardStop();
  if (on_abort_) on_abort_(std::move(status));
}

// ----- fault injection and recovery -----

void Vim::InstallFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  transfers_.set_fault_plan(plan);
}

void Vim::OnTlbParityDrop(const hw::TlbEntry& dropped) {
  ++service_stats_.tlb_parity_drops;
  // Keep the dropped entry's dirty information: the page is still
  // resident, and the refill fault that follows must not forget that
  // the coprocessor wrote to it.
  if (dropped.dirty && pages_.frame(dropped.frame).in_use) {
    pages_.MarkDirty(dropped.frame);
  }
}

template <typename Attempt>
mem::TransferResult Vim::RetryTransfer(const char* op, u32 len,
                                       Attempt attempt) {
  mem::TransferResult total;
  for (u32 tries = 0;; ++tries) {
    const mem::TransferResult r = attempt();
    total.time += r.time;
    total.retried_beats += r.retried_beats;
    if (!r.bus_error && !r.iommu_fault) {
      total.bytes = r.bytes;
      return total;
    }
    if (r.iommu_fault) {
      // Translation fault on the DMA: decode it and re-enter the same
      // bounded retry loop a bus error would take. A transient walk
      // failure (injected fault) succeeds on a later attempt; a
      // genuinely unmapped page exhausts the limit and fails the run.
      ++acct().iommu_faults;
      total.time += costs_.Cycles(costs_.fault_decode_cycles);
    }
    ++service_stats_.transfer_retries;
    if (tries + 1 >= kTransferRetryLimit) break;
    total.time += costs_.Cycles(
        static_cast<u64>(costs_.transfer_retry_backoff_cycles) << tries);
    if (!ChargeFaultRecovery(StrFormat("AHB %s retry", op).c_str())) {
      total.bus_error = true;
      return total;
    }
  }
  ++service_stats_.transfer_retry_failures;
  fault_abort_ = true;
  last_failure_ = UnavailableError(
      StrFormat("AHB %s of %u bytes failed after %u attempts", op, len,
                kTransferRetryLimit));
  total.bus_error = true;
  return total;
}

bool Vim::ChargeFaultRecovery(const char* what) {
  if (++acct().fault_recoveries <= kFaultBudget) return true;
  ++service_stats_.fault_budget_aborts;
  fault_abort_ = true;
  last_failure_ = ResourceExhaustedError(StrFormat(
      "per-request fault budget (%u recoveries) exhausted at %s",
      kFaultBudget, what));
  if (!space_->aborted) Abort(last_failure_);
  return false;
}

void Vim::ArmWatchdog() {
  if (fault_plan_ == nullptr || fault_plan_->empty()) return;
  if (imu_ == nullptr) return;
  wd_stuck_ticks_ = 0;
  wd_last_progress_ = ~u64{0};  // first tick always snapshots fresh
  const u64 epoch = ++watchdog_epoch_;
  sim_.ScheduleAfter(kWatchdogTimeout,
                     [this, epoch] { WatchdogTick(epoch); });
}

void Vim::WatchdogTick(u64 epoch) {
  if (epoch != watchdog_epoch_) return;  // run ended / preempted / re-armed
  if (space_ == nullptr || space_->aborted || imu_ == nullptr) return;
  ++service_stats_.watchdog_wakeups;

  // A fault is latched in SR but its service was never scheduled: the
  // page-fault interrupt was lost. Re-entering the handler from the
  // poll recovers it (the handler itself is edge-agnostic).
  if (imu_->fault_pending() && !fault_service_pending_) {
    ++service_stats_.watchdog_recoveries;
    if (!ChargeFaultRecovery("watchdog fault re-poll")) return;
    OnPageFault();
    if (space_->aborted) return;
    sim_.ScheduleAfter(kWatchdogTimeout,
                       [this, epoch] { WatchdogTick(epoch); });
    return;
  }

  // SR.end set with nothing scheduled: the end-of-operation interrupt
  // was lost; run the sweep now (it acknowledges and completes).
  if ((imu_->ReadRegister(hw::ImuRegister::kSR) & hw::kSrEndPending) != 0) {
    ++service_stats_.watchdog_recoveries;
    if (!ChargeFaultRecovery("watchdog end-of-operation re-poll")) return;
    OnEndOfOperation();
    return;
  }

  // Hang detection: the interface shows no pending work, yet neither
  // the access counters nor the core's cycle counter moved since the
  // last tick. Two consecutive silent periods = wedged for good.
  const u64 progress = imu_->stats().accesses + imu_->stats().faults +
                       (progress_probe_ ? progress_probe_() : 0);
  if ((imu_->busy() || imu_->hung()) && progress == wd_last_progress_) {
    if (++wd_stuck_ticks_ >= 2) {
      ++service_stats_.watchdog_hang_aborts;
      fault_abort_ = true;
      Abort(UnavailableError(StrFormat(
          "watchdog: coprocessor made no progress for %u periods "
          "(hung interface)",
          wd_stuck_ticks_)));
      return;
    }
  } else {
    wd_stuck_ticks_ = 0;
    wd_last_progress_ = progress;
  }
  sim_.ScheduleAfter(kWatchdogTimeout,
                     [this, epoch] { WatchdogTick(epoch); });
}

}  // namespace vcop::os
