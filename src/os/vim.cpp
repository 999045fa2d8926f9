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
  pages_.SetPolicy(MakePolicy(config.policy, config.seed));
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

void Vim::BindImu(hw::Imu* imu) {
  imu_ = imu;
  if (imu_ == nullptr) return;
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
  const u64 start = static_cast<u64>(vpage) * object.page_bytes;
  VCOP_CHECK_MSG(start < object.size_bytes, "page beyond object");
  const u64 remaining = object.size_bytes - start;
  return static_cast<u32>(std::min<u64>(remaining, object.page_bytes));
}

mem::UserAddr Vim::PageUserAddr(const MappedObject& object,
                                mem::VirtPage vpage) const {
  return object.user_addr + static_cast<mem::UserAddr>(
                                static_cast<u64>(vpage) * object.page_bytes);
}

void Vim::Book(const ServiceTime& cost) {
  acct().t_dp += cost.dp;
  acct().t_imu += cost.imu;
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

  u64 setup_cycles =
      costs_.syscall_cycles +
      static_cast<u64>(objects().size()) * costs_.execute_setup_cycles_per_object;
  Picoseconds setup = costs_.Cycles(setup_cycles);

  if (!params.empty()) {
    // Other tenants may hold every frame: evicting a victim for the
    // parameter page is charged to this tenant's setup, and a victim
    // whose write-back fails aborts the run and fails the setup.
    ServiceTime cost;
    if (!MapParamPage(params, cost)) return last_failure_;
    setup += cost.total();
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

  ServiceTime cost{.imu = costs_.Cycles(costs_.interrupt_entry_cycles +
                                        costs_.fault_decode_cycles)};

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
    cost.imu += costs_.Cycles(costs_.tlb_update_cycles);
    ++acct().tlb_refills;
    Book(cost);
    acct().fault_service_us.Add(ToMicroseconds(cost.total()));
    ScheduleResolve(sim_.now() + cost.total());
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
    SaveContext(cost);
    Book(cost);
    if (space_->aborted) return;  // write-back failed mid-save
    ++acct().preemptions;
    if (timeline_ != nullptr) {
      timeline_->Record(TimelineKind::kPreempt, sim_.now(), cost.total(),
                        {space_->pid(), oid});
    }
    // Like a completion, the run ends once the service is over; until
    // then a second edge of this fault is a duplicate.
    fault_service_pending_ = true;
    sim_.ScheduleAt(sim_.now() + cost.total(), [this] {
      fault_service_pending_ = false;
      if (on_end_) on_end_(Status::Ok(), /*preempted=*/true);
    });
    return;
  }

  HarvestRecency();

  const mem::VirtPage vpage =
      static_cast<mem::VirtPage>(offset / object->page_bytes);

  // The handler itself has to wait while the CPU finishes queued
  // background units (copy loops run interrupt-disabled).
  if (cpu_busy_until_ > sim_.now()) {
    const Picoseconds wait = cpu_busy_until_ - sim_.now();
    cost.dp += wait;
    acct().t_dp_wait += wait;
  }

  if (const std::optional<mem::FrameId> resident =
          pages_.FindResident(oid, vpage, space_->asid())) {
    // Soft fault: the page is in the dual-port RAM but its translation
    // fell out of the TLB (possible when tlb_entries < num_frames).
    InstallTlbEntry(oid, vpage, *resident);
    cost.imu += costs_.Cycles(costs_.tlb_update_cycles);
    ++acct().tlb_refills;
  } else if (!MapPage(*object, vpage, cost)) {
    return;
  }

  if (config_.prefetch == PrefetchKind::kClean) {
    // Background work, run on the CPU *after* the coprocessor resumes:
    // eager cleaning. The write-backs dominate the serial DP-management
    // time (output pages must all go back to user space); pushing them
    // into the background is where overlap pays.
    Picoseconds tail = std::max(sim_.now() + cost.total(), cpu_busy_until_);
    ScheduleBackgroundCleaning(tail);
    cpu_busy_until_ = tail;
  }

  Book(cost);
  acct().fault_service_us.Add(ToMicroseconds(cost.total()));
  if (timeline_ != nullptr) {
    timeline_->Record(TimelineKind::kFault, sim_.now(), cost.total(),
                      {oid, vpage});
  }
  ScheduleResolve(sim_.now() + cost.total());
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
                  ServiceTime& cost) {
  // A hard demand fault extends or breaks its object's sequential run,
  // and may re-fault a page its space evicted after use; the
  // replacement policy may weigh both (DemandFault).
  const DemandFault demand{
      object.id, vpage, space_->NoteDemandFault(object.id, vpage),
      hot_frames_, space_->evicted_after_use.Contains(object.id, vpage)};
  const u32 span = geometry_.SpanOf(object.page_bytes);
  const std::optional<mem::FrameId> frame = AcquireFrame(span, &demand, cost);
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
    cost.dp += r.time;
    if (r.bus_error) {
      if (!space_->aborted) Abort(last_failure_);
      return false;
    }
    CountLoad(len, reload);
    space_->transferred.Insert(object.id, vpage);
  }
  pages_.Install(*frame, object.id, vpage, /*pinned=*/false, space_->asid(),
                 span);
  InstallTlbEntry(object.id, vpage, *frame);
  cost.imu +=
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
                                              const DemandFault* demand,
                                              ServiceTime& cost) {
  const std::optional<mem::FrameId> start = pages_.Choose(span, demand);
  if (!start.has_value()) {
    Abort(ResourceExhaustedError(
        span > 1 ? StrFormat("no %u-frame window available for a %u-byte "
                             "superpage (pinned frames fragment the "
                             "dual-port RAM)",
                             span, span * geometry_.page_bytes())
                 : "no evictable interface page (all frames pinned)"));
    return std::nullopt;
  }
  // A run in use is met first at its head, or at the window's first
  // frame when it began before the window; evicting it frees its tails.
  for (mem::FrameId f = *start; f < *start + span; ++f) {
    const FrameState& s = pages_.frame(f);
    if (!s.in_use) continue;
    EvictFrame(s.continuation ? s.head : f, cost);
    if (space_->aborted) return std::nullopt;
  }
  return start;
}

void Vim::FreeFrame(mem::FrameId frame) {
  pages_.Release(frame);
  clean_queued_[frame] = false;
}

bool Vim::MapParamPage(std::span<const u32> params, ServiceTime& cost) {
  const std::optional<mem::FrameId> frame =
      AcquireFrame(/*span=*/1, nullptr, cost);
  if (!frame.has_value()) return false;
  for (usize i = 0; i < params.size(); ++i) {
    dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor,
                      geometry_.FrameBase(*frame) + static_cast<u32>(4 * i),
                      4, params[i]);
  }
  pages_.Install(*frame, hw::kParamObject, 0, /*pinned=*/true,
                 space_->asid());
  InstallTlbEntry(hw::kParamObject, 0, *frame);
  space_->param_frame = frame;
  space_->params_live = true;
  cost.dp += transfers_.PriceParams(static_cast<u32>(params.size() * 4));
  return true;
}

void Vim::ReleaseParamFrame() {
  if (!space_->param_frame.has_value()) return;
  FreeFrame(*space_->param_frame);
  space_->param_frame.reset();
}

void Vim::EvictFrame(mem::FrameId frame, ServiceTime& cost) {
  // Fold the live TLB entry's dirty and accessed bits into the page
  // state first.
  if (const std::optional<u32> e = imu_->tlb().FindByFrame(frame)) {
    const hw::TlbEntry old = imu_->tlb().Invalidate(*e);
    KeepDirty(old);
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
    } else if (!WriteBack(frame, *owner, *object, cost)) {
      // The dirty page cannot leave the fabric, so the run fails. The
      // abort flushes the attached space's frames, this one among them
      // when it is the space's own; a foreign owner keeps its page.
      if (!space_->aborted) Abort(last_failure_);
      return;
    }
  }
  FreeFrame(frame);
  ++acct().evictions;
  cost.imu += costs_.Cycles(costs_.page_table_cycles);
}

bool Vim::WriteBack(mem::FrameId frame, AddressSpace& owner,
                    const MappedObject& object, ServiceTime& cost) {
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
  cost.dp += r.time;
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
    KeepDirty(tlb.Invalidate(victim));
    slot = victim;
  }
  tlb.Install(*slot, object, vpage, frame, space_->asid());
}

void Vim::ScheduleBackgroundCleaning(Picoseconds& tail) {
  // Budget per fault service: a couple of pages, so a burst of dirty
  // pages cannot starve fault handling behind a long copy queue.
  u32 budget = 2;
  for (const mem::FrameId f : pages_.HeadsOf(space_->asid())) {
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
      MarkClean(f);
      ++acct().cleaned_pages;
      acct().bytes_written_back += len;
    });
  }
}

void Vim::HarvestRecency() {
  hot_frames_.assign(geometry_.num_frames(), false);
  imu_->tlb().HarvestAccessed([this](mem::FrameId f) {
    pages_.Touch(f);
    hot_frames_[f] = true;
  });
}

void Vim::KeepDirty(const hw::TlbEntry& entry) {
  if (entry.valid && entry.dirty && pages_.frame(entry.frame).in_use) {
    pages_.MarkDirty(entry.frame);
  }
}

void Vim::MergeTlbDirty(hw::Asid asid) {
  const hw::Tlb& tlb = imu_->tlb();
  for (u32 i = 0; i < tlb.num_entries(); ++i) {
    if (tlb.entry(i).asid == asid) KeepDirty(tlb.entry(i));
  }
}

void Vim::MarkClean(mem::FrameId frame) {
  pages_.ClearDirty(frame);
  if (const std::optional<u32> entry = imu_->tlb().FindByFrame(frame)) {
    imu_->tlb().ClearDirty(*entry);
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

  ServiceTime cost{.imu = costs_.Cycles(costs_.interrupt_entry_cycles)};
  EndBackgroundWork(cost);

  // Merge live dirty bits, then drop the translations. Only this
  // space's entries and frames are touched, so on a shared fabric
  // (vcopd) other tenants' working sets survive.
  const hw::Asid asid = space_->asid();
  MergeTlbDirty(asid);
  imu_->tlb().InvalidateAsid(asid);

  // "The interface manager copies back to user space all the dirty data
  // currently residing in the dual-port memory." (§3.3)
  for (const mem::FrameId f : pages_.HeadsOf(asid)) {
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
      } else if (!WriteBack(f, *space_, *object, cost)) {
        Book(cost);
        if (!space_->aborted) Abort(last_failure_);
        return;
      }
    }
    FreeFrame(f);
    cost.imu += costs_.Cycles(costs_.page_table_cycles);
  }
  space_->params_live = false;

  // The run's DMA window is over: shoot down its IO-TLB entries so
  // nothing can translate through them afterwards (the write-back
  // sweep above was the last legitimate user).
  transfers_.Invalidate(asid);

  imu_->AckEnd();
  const Picoseconds wake = costs_.Cycles(costs_.wakeup_cycles);
  Book(cost);
  acct().t_wakeup += wake;
  if (timeline_ != nullptr) {
    timeline_->Record(TimelineKind::kSweep, sim_.now(), cost.total() + wake);
  }

  sim_.ScheduleAt(sim_.now() + cost.total() + wake, [this] {
    if (on_end_) on_end_(Status::Ok(), /*preempted=*/false);
  });
}

void Vim::SaveContext(ServiceTime& cost) {
  VCOP_CHECK_MSG(imu_ != nullptr, "context save with no IMU bound");
  VCOP_CHECK_MSG(space_ != nullptr, "context save with no space attached");
  const hw::Asid asid = space_->asid();
  cost.imu += costs_.Cycles(costs_.context_save_cycles);

  // The tenant leaves the fabric; neither its watchdog nor its
  // background work may reach into some other tenant's slice.
  // RestoreContext re-arms the watchdog.
  ++watchdog_epoch_;
  EndBackgroundWork(cost);

  HarvestRecency();

  // Release the pinned parameter frame; a resume re-materialises it from
  // the saved words (params_live stays true), so holding a pinned frame
  // across the switched-out window would starve the other tenants.
  if (space_->param_frame.has_value()) {
    if (const std::optional<u32> entry =
            imu_->tlb().Probe(hw::kParamObject, 0, asid)) {
      imu_->tlb().Invalidate(*entry);
    }
    ReleaseParamFrame();
    cost.imu += costs_.Cycles(costs_.page_table_cycles);
  }

  // The translations stay installed under the tenant's ASID; a fault
  // refills any that an intervening tenant recycles. Dirty pages are
  // written back eagerly, so a foreign eviction of one of our frames
  // while we are switched out is a free drop.
  MergeTlbDirty(asid);
  for (const mem::FrameId f : pages_.HeadsOf(asid)) {
    const FrameState state = pages_.frame(f);
    if (!state.dirty) continue;
    const MappedObject* object = space_->objects().Find(state.object);
    VCOP_CHECK_MSG(object != nullptr, "resident page of unknown object");
    // kIn pages never reach user space; if a foreign eviction drops
    // one later it is counted there, not here.
    if (object->direction == Direction::kIn) continue;
    if (!WriteBack(f, *space_, *object, cost)) {
      if (!space_->aborted) Abort(last_failure_);
      return;
    }
    ++service_stats_.pages_written_back_on_save;
    MarkClean(f);
  }

  // The tenant's DMA window closes with its slice: shoot its IO-TLB
  // entries down so a later tenant cannot translate through them.
  transfers_.Invalidate(asid);

  // Back on the fabric, the tenant's evictions start over: what other
  // tenants did meanwhile decides which of its pages are still resident.
  space_->evicted_after_use.Clear();

  ++service_stats_.context_saves;
}

Picoseconds Vim::RestoreContext() {
  VCOP_CHECK_MSG(imu_ != nullptr, "context restore with no IMU bound");
  VCOP_CHECK_MSG(space_ != nullptr,
                 "context restore with no space attached");
  ServiceTime cost{.imu = costs_.Cycles(costs_.context_restore_cycles)};

  // Re-materialise the parameter page released at save time.
  if (space_->params_live && !space_->param_frame.has_value() &&
      MapParamPage(space_->saved_params, cost)) {
    cost.imu += costs_.Cycles(costs_.tlb_update_cycles);
  }

  ++service_stats_.context_restores;
  Book(cost);
  ArmWatchdog();
  return cost.total();
}

void Vim::FlushAsid(hw::Asid asid) {
  VCOP_CHECK_MSG(imu_ != nullptr, "flush with no IMU bound");
  imu_->tlb().InvalidateAsid(asid);
  for (const mem::FrameId f : pages_.HeadsOf(asid)) FreeFrame(f);
  if (AddressSpace* owner = ResolveSpace(asid)) owner->param_frame.reset();
  // The ASID's interface state is gone, and with it every cached DMA
  // translation.
  transfers_.Invalidate(asid);
}

void Vim::EndBackgroundWork(ServiceTime& cost) {
  ++epoch_;
  clean_queued_.assign(clean_queued_.size(), false);
  if (cpu_busy_until_ > sim_.now()) {
    const Picoseconds wait = cpu_busy_until_ - sim_.now();
    cost.dp += wait;
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
  ServiceTime dropped;
  EndBackgroundWork(dropped);
  VCOP_LOG(kWarning, "VIM aborting run: " + status.ToString());
  imu_->HardStop();
  if (on_end_) on_end_(std::move(status), /*preempted=*/false);
}

// ----- fault injection and recovery -----

void Vim::InstallFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  transfers_.set_fault_plan(plan);
}

void Vim::OnTlbParityDrop(const hw::TlbEntry& dropped) {
  ++service_stats_.tlb_parity_drops;
  // The page is still resident, and the refill fault that follows must
  // not forget that the coprocessor wrote to it.
  KeepDirty(dropped);
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
