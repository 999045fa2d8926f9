#include "os/vim.h"

#include <algorithm>

#include "base/log.h"
#include "base/table.h"

namespace vcop::os {

Vim::Vim(const CostModel& costs, mem::PageGeometry geometry,
         mem::DualPortRam& dp_ram, mem::UserMemory& user_memory,
         sim::Simulator& sim)
    : costs_(costs),
      geometry_(geometry),
      dp_ram_(dp_ram),
      user_memory_(user_memory),
      sim_(sim),
      transfers_(mem::AhbModel(costs.ahb, costs.cpu_clock), costs.cpu_clock,
                 mem::CopyMode::kDoubleCopy, costs.sdram_cycles_per_word),
      iommu_(transfers_, costs.cpu_clock),
      pages_(geometry) {
  iommu_.set_walker([this](mem::IommuAsid asid, mem::UserAddr page_base) {
    return IommuWalk(asid, page_base);
  });
  Configure(VimConfig{});
}

void Vim::Configure(const VimConfig& config) {
  config_ = config;
  policy_ = MakePolicy(config.policy, config.seed);
  policy_->Reset(geometry_.num_frames());
  prefetcher_ = MakePrefetcher(config.prefetch, config.prefetch_depth);
  transfers_.set_mode(config.copy_mode);
  iommu_.Configure(config.iommu, config.iotlb_entries,
                   costs_.iommu_walk_cycles);
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

Picoseconds Vim::PricePage(u32 len) const {
  return config_.iommu ? transfers_.PriceDirect(len)
                       : transfers_.PriceTransfer(len);
}

bool Vim::KernelCopyHeld(hw::ObjectId object, mem::VirtPage vpage) const {
  return !config_.iommu &&
         transfers_.mode() == mem::CopyMode::kDoubleCopy &&
         space_->objects().version() == space_->transferred_objects_version &&
         space_->transferred.count({object, vpage}) != 0;
}

void Vim::SetPolicy(std::unique_ptr<ReplacementPolicy> policy) {
  VCOP_CHECK_MSG(policy != nullptr, "null policy");
  policy_ = std::move(policy);
  policy_->Reset(geometry_.num_frames());
}

void Vim::SetPrefetcher(std::unique_ptr<Prefetcher> prefetcher) {
  VCOP_CHECK_MSG(prefetcher != nullptr, "null prefetcher");
  prefetcher_ = std::move(prefetcher);
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

u32 Vim::ObjectNumPages(const MappedObject& object) const {
  return static_cast<u32>(
      DivCeil(object.size_bytes, ObjectPageBytes(object)));
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
  // stale data. Other spaces' frames and TLB entries stay resident. What
  // the previous execution taught the prefetcher, and where it left the
  // TLB recycle cursor, are forgotten, so a repeated execution repeats
  // itself.
  FlushAsid(space_->asid());
  prefetcher_->Reset();
  tlb_recycle_cursor_ = 0;
  space_->param_frame.reset();
  space_->transferred.clear();
  space_->evicted_after_use.clear();
  space_->transferred_objects_version = objects().version();
  space_->tlb_snapshot.clear();
  space_->last_fault_page = {};
  space_->saved_params.assign(params.begin(), params.end());
  space_->params_live = false;
  ++epoch_;
  AbandonInFlight();
  cpu_busy_until_ = 0;

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
      timeline_->Record(
          StrFormat("preempt pid%u obj%u", space_->pid(), oid), "preempt",
          sim_.now(), imu_cost + save, /*track=*/3);
    }
    if (on_preempt_) on_preempt_(imu_cost + save);
    return;
  }

  HarvestRecency();

  const mem::VirtPage vpage = ObjectPageOf(*object, offset);

  if (config_.overlap_prefetch) {
    // Racing an in-flight background load of this very page: the
    // service just waits for the transfer to land (its translation is
    // installed by the completion event).
    for (const InFlight& unit : in_flight_) {
      if (unit.object == oid && unit.vpage == vpage) {
        NoteSpeculativeTouch(unit.frame);
        const Picoseconds decode_done = sim_.now() + imu_cost;
        const Picoseconds done = std::max(decode_done, unit.ready_at);
        acct().t_imu += imu_cost;
        acct().t_dp += done - decode_done;
        acct().t_dp_wait += done - decode_done;
        acct().fault_service_us.Add(
            ToMicroseconds(done - sim_.now()));
        ScheduleResolve(done);
        return;
      }
    }
    // The handler itself has to wait while the CPU finishes queued
    // background transfer units (copy loops run interrupt-disabled).
    if (cpu_busy_until_ > sim_.now()) {
      const Picoseconds wait = cpu_busy_until_ - sim_.now();
      dp_cost += wait;
      acct().t_dp_wait += wait;
    }
  }

  if (const std::optional<mem::FrameId> resident =
          pages_.FindResident(oid, vpage, space_->asid())) {
    // Soft fault: the page is in the dual-port RAM but its translation
    // fell out of the TLB (possible when tlb_entries < num_frames).
    NoteSpeculativeTouch(*resident);
    InstallTlbEntry(oid, vpage, *resident);
    imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
    ++acct().tlb_refills;
  } else if (!MapPage(*object, vpage, /*speculative=*/false, dp_cost,
                      imu_cost)) {
    return;
  }

  // Speculative extra pages (§3.3 "speculative actions as prefetching
  // could be used in order to avoid translation misses"). Prefetch is
  // best-effort (AcquireFrame): it never pays a write-back for a guess.
  // In overlapped mode the units run on the CPU *after* the coprocessor
  // resumes.
  Picoseconds tail =
      std::max(sim_.now() + imu_cost + dp_cost, cpu_busy_until_);
  for (const PrefetchSuggestion& s :
       ClampedSuggestions(oid, vpage, ObjectNumPages(*object))) {
    // Resident, or reserved for an in-flight unit: nothing to guess.
    if (pages_.FindResident(s.object, s.vpage, space_->asid())) continue;
    if (config_.overlap_prefetch) {
      ScheduleOverlappedPrefetch(*object, s.vpage, tail);
      continue;
    }
    if (!MapPage(*object, s.vpage, /*speculative=*/true, dp_cost,
                 imu_cost)) {
      if (space_->aborted) return;
      break;
    }
    ++acct().prefetched_pages;
  }
  if (config_.overlap_prefetch) {
    // Eager cleaning: the write-backs, not the loads, dominate the
    // serial DP-management time (output pages must all go back to user
    // space); pushing them into the background is where overlap pays.
    ScheduleBackgroundCleaning(tail);
    cpu_busy_until_ = tail;
  }

  acct().t_imu += imu_cost;
  acct().t_dp += dp_cost;
  acct().fault_service_us.Add(ToMicroseconds(imu_cost + dp_cost));
  if (timeline_ != nullptr) {
    timeline_->Record(
        StrFormat("fault obj%u page%u", oid, vpage), "fault", sim_.now(),
        imu_cost + dp_cost, /*track=*/0);
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

void Vim::ScheduleOverlappedPrefetch(const MappedObject& object,
                                     mem::VirtPage vpage,
                                     Picoseconds& tail) {
  // Claim a frame now (while the coprocessor is stalled, so evicting a
  // clean victim's translation is race-free); fill it later. The clean
  // victim adds no transfer time to the unit.
  Picoseconds unit_cost = 0;
  const u32 span = ObjectPageSpan(object);
  const std::optional<mem::FrameId> frame =
      AcquireFrame(span, /*speculative=*/true, nullptr, unit_cost, unit_cost);
  if (!frame.has_value()) return;  // nothing cheap to speculate into
  InstallPage(*frame, object.id, vpage, /*pinned=*/true,
              /*speculative=*/true, span);

  const u32 len = PageLength(object, vpage);
  const bool needs_load = NeedsLoad(object, vpage);
  // A unit re-loads from a bounce copy the kernel kept, but keeps none
  // of its own (see AddressSpace::transferred).
  const bool reload = needs_load && KernelCopyHeld(object.id, vpage);
  unit_cost +=
      costs_.Cycles(costs_.tlb_update_cycles + costs_.page_table_cycles);
  if (needs_load) {
    unit_cost += reload ? transfers_.PriceReload(len) : PricePage(len);
  }

  const mem::UserAddr user_src = PageUserAddr(object, vpage);
  // Under the IOMMU the transfer references the user pages directly
  // until it lands: pin them so reclamation cannot pull the source out
  // from under an in-flight DMA.
  const bool pin = config_.iommu && needs_load;
  if (pin) iommu_.PinRange(user_memory_, user_src, len);

  tail = std::max(tail, sim_.now()) + unit_cost;
  in_flight_.push_back(
      InFlight{object.id, vpage, *frame, tail, user_src, len, pin});
  acct().t_dp_overlapped += unit_cost;
  ++acct().prefetched_pages;
  if (timeline_ != nullptr) {
    timeline_->Record(
        StrFormat("prefetch obj%u page%u", object.id, vpage), "overlap",
        tail - unit_cost, unit_cost, /*track=*/2);
  }

  const u64 epoch = epoch_;
  const mem::FrameId f = *frame;
  const hw::ObjectId oid = object.id;
  const mem::UserAddr src = user_src;
  sim_.ScheduleAt(tail, [this, epoch, f, oid, vpage, src, len, needs_load,
                         reload, pin] {
    if (epoch != epoch_) return;  // run ended or aborted meanwhile
    if (needs_load) {
      dp_ram_.Write(mem::DualPortRam::Port::kProcessor,
                    geometry_.FrameBase(f), user_memory_.View(src, len));
      CountLoad(len, reload);
    }
    if (pin) iommu_.UnpinRange(user_memory_, src, len);
    pages_.Unpin(f);
    InstallTlbEntry(oid, vpage, f);
    for (usize i = 0; i < in_flight_.size(); ++i) {
      if (in_flight_[i].frame == f) {
        in_flight_.erase(in_flight_.begin() + static_cast<long>(i));
        break;
      }
    }
  });
}

bool Vim::MapPage(const MappedObject& object, mem::VirtPage vpage,
                  bool speculative, Picoseconds& dp_cost,
                  Picoseconds& imu_cost) {
  // A hard demand fault extends or breaks its object's sequential run;
  // the replacement policy may weigh which (DemandFault).
  std::optional<DemandPage> demand;
  if (!speculative) {
    demand = DemandPage{object.id, vpage,
                        space_->NoteDemandFault(object.id, vpage)};
  }
  const u32 span = ObjectPageSpan(object);
  const std::optional<mem::FrameId> frame =
      AcquireFrame(span, speculative, demand ? &*demand : nullptr, dp_cost,
                   imu_cost);
  if (!frame.has_value()) return false;
  if (!speculative) ++acct().faults;

  if (NeedsLoad(object, vpage)) {
    const u32 len = PageLength(object, vpage);
    const bool reload = KernelCopyHeld(object.id, vpage);
    const mem::TransferResult r = LoadPageRetried(
        space_->asid(), PageUserAddr(object, vpage),
        geometry_.FrameBase(*frame), len, reload);
    dp_cost += r.time;
    if (r.bus_error) {
      if (!space_->aborted) Abort(last_failure_);
      return false;
    }
    CountLoad(len, reload);
    space_->transferred.insert({object.id, vpage});
  }
  InstallPage(*frame, object.id, vpage, /*pinned=*/false, speculative,
              span);
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
         space_->transferred.count({object.id, vpage}) != 0;
}

void Vim::CountLoad(u32 len, bool reload) {
  ++acct().loads;
  if (reload) ++acct().kernel_copy_loads;
  acct().bytes_loaded += len;
}

std::optional<mem::FrameId> Vim::AcquireFrame(u32 span, bool speculative,
                                              const DemandPage* demand,
                                              Picoseconds& dp_cost,
                                              Picoseconds& imu_cost) {
  if (span > 1) {
    if (const std::optional<mem::FrameId> run = pages_.FindFreeRun(span)) {
      return run;
    }
    if (speculative) return std::nullopt;  // never evict for a guess
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
  std::vector<bool> evictable = pages_.EvictableMask();
  if (speculative) {
    // Never pay a write-back for speculation, and never displace a
    // page the coprocessor is actively using: only clean, cold victims.
    for (mem::FrameId f = 0; f < evictable.size(); ++f) {
      if (evictable[f] &&
          (FrameDirty(f) || (f < hot_frames_.size() && hot_frames_[f]))) {
        evictable[f] = false;
      }
    }
  }
  if (std::find(evictable.begin(), evictable.end(), true) ==
      evictable.end()) {
    if (!speculative) {
      Abort(ResourceExhaustedError(
          "no evictable interface page (all frames pinned)"));
    }
    return std::nullopt;
  }
  const mem::FrameId victim =
      demand == nullptr
          ? policy_->PickVictim(evictable)
          : policy_->PickDemandVictim(
                evictable,
                DemandFault{demand->object, demand->vpage, demand->previous,
                            hot_frames_, pages_.SpeculativeMask(),
                            space_->evicted_after_use.count(
                                {demand->object, demand->vpage}) != 0});
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
                      mem::VirtPage vpage, bool pinned, bool speculative,
                      u32 span) {
  pages_.Install(frame, object, vpage, pinned, space_->asid(), span);
  if (speculative) pages_.MarkSpeculative(frame);
  policy_->OnInstalled(frame, object, vpage);
}

void Vim::FreeFrame(mem::FrameId frame) {
  SettleSpeculativeRelease(pages_.frame(frame));
  pages_.Release(frame);
  policy_->OnFreed(frame);
}

bool Vim::MapParamPage(std::span<const u32> params, Picoseconds& dp_cost,
                       Picoseconds& imu_cost) {
  const std::optional<mem::FrameId> frame = AcquireFrame(
      /*span=*/1, /*speculative=*/false, nullptr, dp_cost, imu_cost);
  if (!frame.has_value()) return false;
  for (usize i = 0; i < params.size(); ++i) {
    dp_ram_.WriteWord(mem::DualPortRam::Port::kProcessor,
                      geometry_.FrameBase(*frame) + static_cast<u32>(4 * i),
                      4, params[i]);
  }
  InstallPage(*frame, hw::kParamObject, 0, /*pinned=*/true,
              /*speculative=*/false, /*span=*/1);
  InstallTlbEntry(hw::kParamObject, 0, *frame);
  space_->param_frame = frame;
  space_->params_live = true;
  dp_cost += transfers_.PriceTransfer(static_cast<u32>(params.size() * 4));
  return true;
}

void Vim::ReleaseParamFrame() {
  if (!space_->param_frame.has_value()) return;
  FreeFrame(*space_->param_frame);
  space_->param_frame.reset();
}

void Vim::EvictFrame(mem::FrameId frame, Picoseconds& dp_cost,
                     Picoseconds& imu_cost) {
  // Fold the live TLB entry's dirty bit into the page state first. The
  // accessed/dirty bits also settle the speculation verdict for a
  // prefetched frame: referenced since the last harvest counts as a
  // useful guess.
  if (const std::optional<u32> e = imu_->tlb().FindByFrame(frame)) {
    const hw::TlbEntry old = imu_->tlb().Invalidate(*e);
    if (old.dirty) pages_.MarkDirty(frame);
    if (old.accessed || old.dirty) {
      NoteSpeculativeTouch(frame);
      pages_.MarkReferenced(frame);
    }
  }
  const FrameState state = pages_.frame(frame);
  AddressSpace* owner = ResolveSpace(state.asid);
  VCOP_CHECK_MSG(owner != nullptr, "evicting a frame of an unknown space");
  // Only the attached space's own evictions of pages it used count
  // towards its re-faults; another tenant's eviction says nothing about
  // this one's working set.
  if (state.referenced && owner == space_) {
    space_->evicted_after_use.insert({state.object, state.vpage});
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
  const mem::TransferResult r =
      StorePageRetried(state.asid, geometry_.FrameBase(frame),
                       PageUserAddr(object, state.vpage), len);
  dp_cost += r.time;
  if (r.bus_error) return false;
  ++owner.accounting.writebacks;
  owner.accounting.bytes_written_back += len;
  owner.transferred.insert({state.object, state.vpage});
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
  for (const mem::FrameId f : pages_.InUseFrames()) {
    if (budget == 0) break;
    const FrameState state = pages_.frame(f);
    if (state.pinned) continue;
    if (f < hot_frames_.size() && hot_frames_[f]) continue;
    if (!FrameDirty(f)) continue;
    const MappedObject* object = space_->objects().Find(state.object);
    if (object == nullptr || object->direction == Direction::kIn) continue;

    const u32 len = PageLength(*object, state.vpage);
    const Picoseconds unit_cost =
        PricePage(len) + costs_.Cycles(costs_.page_table_cycles);
    tail = std::max(tail, sim_.now()) + unit_cost;
    acct().t_dp_overlapped += unit_cost;
    --budget;
    if (timeline_ != nullptr) {
      timeline_->Record(
          StrFormat("clean obj%u page%u", state.object, state.vpage),
          "overlap", tail - unit_cost, unit_cost, /*track=*/2);
    }

    const u64 epoch = epoch_;
    const hw::ObjectId oid = state.object;
    const mem::VirtPage vpage = state.vpage;
    const mem::UserAddr dst = PageUserAddr(*object, vpage);
    sim_.ScheduleAt(tail, [this, epoch, f, oid, vpage, dst, len] {
      if (epoch != epoch_) return;
      const FrameState now_state = pages_.frame(f);
      // The frame may have been evicted/repurposed meanwhile — the
      // eviction already wrote the data back synchronously. A *pinned*
      // match is the subtle case: the page was evicted and the frame
      // re-reserved by an in-flight prefetch of the same page, whose
      // content has not arrived yet — copying it out would publish
      // garbage over the eviction's correct write-back.
      if (!now_state.in_use || now_state.pinned ||
          now_state.object != oid || now_state.vpage != vpage) {
        return;
      }
      std::vector<u8> buf(len);
      dp_ram_.Read(mem::DualPortRam::Port::kProcessor,
                   geometry_.FrameBase(f), buf);
      user_memory_.WriteBytes(dst, buf);
      space_->transferred.insert({oid, vpage});
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
    NoteSpeculativeTouch(f);
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

  // Abandon any still-flying speculative transfers.
  ++epoch_;
  AbandonInFlight();

  Picoseconds imu_cost = costs_.Cycles(costs_.interrupt_entry_cycles);
  Picoseconds dp_cost = 0;
  // The handler runs after any in-progress background copy completes.
  if (cpu_busy_until_ > sim_.now()) {
    const Picoseconds wait = cpu_busy_until_ - sim_.now();
    dp_cost += wait;
    acct().t_dp_wait += wait;
  }
  cpu_busy_until_ = 0;

  // Merge live dirty bits, then drop the translations. Only this
  // space's entries and frames are touched, so on a shared fabric
  // (vcopd) other tenants' working sets survive.
  hw::Tlb& tlb = imu_->tlb();
  const hw::Asid asid = space_->asid();
  for (u32 i = 0; i < tlb.num_entries(); ++i) {
    const hw::TlbEntry e = tlb.entry(i);
    if (!e.valid || e.asid != asid) continue;
    if (e.dirty && pages_.frame(e.frame).in_use) {
      pages_.MarkDirty(e.frame);
    }
    if (e.accessed || e.dirty) NoteSpeculativeTouch(e.frame);
  }
  if (tlb_tagging_) {
    tlb.InvalidateAsid(asid);
    ++service_stats_.tlb_flushes_avoided;
  } else {
    tlb.InvalidateAll();
    ++service_stats_.full_tlb_flushes;
  }

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
  if (config_.iommu) iommu_.InvalidateAsid(asid);

  imu_->AckEnd();
  const Picoseconds wake = costs_.Cycles(costs_.wakeup_cycles);
  acct().t_imu += imu_cost;
  acct().t_dp += dp_cost;
  acct().t_wakeup += wake;
  if (timeline_ != nullptr) {
    timeline_->Record("end-of-operation sweep", "transfer", sim_.now(),
                      imu_cost + dp_cost + wake, /*track=*/0);
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

  // The tenant leaves the fabric; its watchdog must not fire into some
  // other tenant's slice. RestoreContext re-arms.
  ++watchdog_epoch_;

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

  space_->tlb_snapshot.clear();
  if (tlb_tagging_) {
    // Tagged mode: translations stay installed (that is the point of the
    // ASID), but we snapshot them so a resume can re-install whatever an
    // intervening tenant recycled. Dirty pages are written back eagerly,
    // so a foreign eviction of one of our frames while we are switched
    // out is a free drop.
    for (u32 i = 0; i < tlb.num_entries(); ++i) {
      const hw::TlbEntry e = tlb.entry(i);
      if (!e.valid || e.asid != asid || e.object == hw::kParamObject) {
        continue;
      }
      if (e.dirty && pages_.frame(e.frame).in_use) {
        pages_.MarkDirty(e.frame);
      }
      space_->tlb_snapshot.push_back(
          TlbSnapshotEntry{e.object, e.vpage, e.frame});
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
    ++service_stats_.tlb_flushes_avoided;
  } else {
    // Untagged baseline: the TLB cannot distinguish tenants, so the
    // whole working set leaves the fabric and the TLB is flushed.
    for (const mem::FrameId f : pages_.InUseFramesOf(asid)) {
      EvictFrame(f, dp_cost, imu_cost);
      if (space_->aborted) break;  // the abort's flush freed the rest
    }
    tlb.InvalidateAll();
    ++service_stats_.full_tlb_flushes;
  }

  // The tenant's DMA window closes with its slice: shoot its IO-TLB
  // entries down so a later tenant cannot translate through them.
  if (config_.iommu) iommu_.InvalidateAsid(asid);

  // Back on the fabric, the tenant's evictions start over: what other
  // tenants did meanwhile decides which of its pages are still resident.
  space_->evicted_after_use.clear();

  ++service_stats_.context_saves;
  acct().t_dp += dp_cost;
  acct().t_imu += imu_cost;
  return dp_cost + imu_cost;
}

Picoseconds Vim::RestoreContext() {
  VCOP_CHECK_MSG(imu_ != nullptr, "context restore with no IMU bound");
  VCOP_CHECK_MSG(space_ != nullptr,
                 "context restore with no space attached");
  const hw::Asid asid = space_->asid();
  hw::Tlb& tlb = imu_->tlb();
  Picoseconds dp_cost = 0;
  Picoseconds imu_cost = costs_.Cycles(costs_.context_restore_cycles);

  if (tlb_tagging_) {
    for (const TlbSnapshotEntry& snap : space_->tlb_snapshot) {
      if (tlb.Probe(snap.object, snap.vpage, asid).has_value()) {
        continue;  // Survived the switched-out window in place.
      }
      if (pages_.FindResident(snap.object, snap.vpage, asid) !=
          snap.frame) {
        continue;  // Frame was evicted meanwhile; a fault will reload it.
      }
      InstallTlbEntry(snap.object, snap.vpage, snap.frame);
      imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
      ++service_stats_.tlb_entries_restored;
    }
  }
  space_->tlb_snapshot.clear();

  // Re-materialise the parameter page released at save time.
  if (space_->params_live && !space_->param_frame.has_value() &&
      MapParamPage(space_->saved_params, dp_cost, imu_cost)) {
    imu_cost += costs_.Cycles(costs_.tlb_update_cycles);
    ++service_stats_.param_page_restores;
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
  if (config_.iommu) iommu_.InvalidateAsid(asid);
}

void Vim::AbandonInFlight() {
  for (const InFlight& unit : in_flight_) {
    if (unit.pinned) {
      iommu_.UnpinRange(user_memory_, unit.user_addr, unit.user_len);
    }
  }
  in_flight_.clear();
}

void Vim::Abort(Status status) {
  VCOP_CHECK_MSG(!status.ok(), "abort with OK status");
  last_failure_ = status;
  space_->aborted = true;
  ++epoch_;
  ++watchdog_epoch_;
  fault_service_pending_ = false;
  AbandonInFlight();
  cpu_busy_until_ = 0;
  VCOP_LOG(kWarning, "VIM aborting run: " + status.ToString());
  imu_->HardStop();
  if (on_abort_) on_abort_(std::move(status));
}

// ----- speculation (DESIGN.md §10) -----

std::vector<PrefetchSuggestion> Vim::ClampedSuggestions(hw::ObjectId oid,
                                                        mem::VirtPage vpage,
                                                        u32 num_pages) {
  std::vector<PrefetchSuggestion> out =
      prefetcher_->Suggest(oid, vpage, num_pages);
  usize kept = 0;
  for (const PrefetchSuggestion& s : out) {
    if (s.object != oid || s.vpage >= num_pages || s.vpage == vpage) {
      ++acct().prefetch_suggestions_dropped;
      continue;
    }
    out[kept++] = s;
  }
  out.resize(kept);
  return out;
}

void Vim::NoteSpeculativeTouch(mem::FrameId frame) {
  const FrameState& state = pages_.frame(frame);
  if (!state.in_use || !state.speculative) return;
  if (AddressSpace* owner = ResolveSpace(state.asid)) {
    ++owner->accounting.prefetch_useful;
  }
  pages_.ClearSpeculative(frame);
}

void Vim::SettleSpeculativeRelease(const FrameState& state) {
  if (!state.speculative) return;
  if (AddressSpace* owner = ResolveSpace(state.asid)) {
    ++owner->accounting.prefetch_wasted;
  }
}

// ----- fault injection and recovery -----

void Vim::InstallFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  transfers_.set_fault_plan(plan);
  iommu_.set_fault_plan(plan);
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

mem::TransferResult Vim::LoadPageRetried(hw::Asid asid, mem::UserAddr src,
                                         u32 dst, u32 len, bool reload) {
  return RetryTransfer("load", len, [&] {
    return config_.iommu
               ? iommu_.LoadToDp(asid, user_memory_, src, dp_ram_, dst, len)
           : reload
               ? transfers_.ReloadPage(user_memory_, src, dp_ram_, dst, len)
               : transfers_.LoadPage(user_memory_, src, dp_ram_, dst, len);
  });
}

mem::TransferResult Vim::StorePageRetried(hw::Asid asid, u32 src,
                                          mem::UserAddr dst, u32 len) {
  return RetryTransfer("store", len, [&] {
    return config_.iommu
               ? iommu_.StoreFromDp(asid, dp_ram_, src, user_memory_, dst,
                                    len)
               : transfers_.StorePage(dp_ram_, src, user_memory_, dst, len);
  });
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
