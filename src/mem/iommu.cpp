#include "mem/iommu.h"

#include "base/bitops.h"

namespace vcop::mem {
namespace {

u32 PagesTouched(UserAddr addr, u32 len) {
  if (len == 0) return 0;
  const u32 first = addr >> kUserPageShift;
  const u32 last = static_cast<u32>((static_cast<u64>(addr) + len - 1) >>
                                    kUserPageShift);
  return last - first + 1;
}

}  // namespace

Iommu::Iommu(Frequency clock, u32 walk_cycles, u32 iotlb_entries)
    : clock_(clock), walk_cycles_(walk_cycles), iotlb_(iotlb_entries) {
  VCOP_CHECK_MSG(IsPowerOfTwo(iotlb_entries),
                 "iotlb_entries must be a power of two");
}

bool Iommu::TranslateOnePage(IommuAsid asid, u32 vpage, Translation& t) {
  // Probe the IO-TLB (fully associative, like the coprocessor TLB).
  for (Entry& e : iotlb_) {
    if (!e.valid || e.asid != asid || e.vpage != vpage) continue;
    if (fault_plan_ &&
        fault_plan_->ShouldInject(FaultSite::kIotlbCorrupt)) {
      // Parity caught a damaged entry at use: drop it and re-walk —
      // transparent recovery, the access itself still succeeds.
      e.valid = false;
      ++stats_.iotlb_parity_drops;
      break;
    }
    ++stats_.iotlb_hits;
    return true;
  }
  ++stats_.iotlb_misses;

  // Walk the owning address space's tables.
  ++stats_.walks;
  t.time += clock_.Duration(walk_cycles_);
  if (fault_plan_ &&
      fault_plan_->ShouldInject(FaultSite::kIommuTranslationFault)) {
    ++stats_.translation_faults;
    return false;
  }
  if (walker_ && !walker_(asid, vpage << kUserPageShift)) {
    ++stats_.translation_faults;
    return false;
  }

  // Refill: take an invalid slot if one exists, else round-robin evict.
  Entry* victim = nullptr;
  for (Entry& e : iotlb_) {
    if (!e.valid) {
      victim = &e;
      break;
    }
  }
  if (victim == nullptr) {
    victim = &iotlb_[evict_cursor_];
    evict_cursor_ = (evict_cursor_ + 1) & (static_cast<u32>(iotlb_.size()) - 1);
    ++stats_.iotlb_evictions;
  }
  victim->valid = true;
  victim->asid = asid;
  victim->vpage = vpage;
  victim->frame = vpage;  // flat simulated SDRAM: identity frame map
  return true;
}

Iommu::Translation Iommu::Translate(IommuAsid asid, UserAddr addr, u32 len) {
  Translation t;
  if (len == 0) return t;
  const u32 first = addr >> kUserPageShift;
  const u32 last = static_cast<u32>((static_cast<u64>(addr) + len - 1) >>
                                    kUserPageShift);
  for (u32 vpage = first; vpage <= last; ++vpage) {
    if (!TranslateOnePage(asid, vpage, t)) {
      t.ok = false;
      break;
    }
  }
  return t;
}

void Iommu::PinRange(UserMemory& user, UserAddr addr, u32 len) {
  user.Pin(addr, len);
  stats_.pages_pinned += PagesTouched(addr, len);
}

void Iommu::UnpinRange(UserMemory& user, UserAddr addr, u32 len) {
  user.Unpin(addr, len);
  stats_.pages_unpinned += PagesTouched(addr, len);
}

u64 Iommu::InvalidateAsid(IommuAsid asid) {
  ++stats_.shootdowns;
  u64 removed = 0;
  for (Entry& e : iotlb_) {
    if (e.valid && e.asid == asid) {
      e.valid = false;
      ++removed;
    }
  }
  stats_.entries_shot_down += removed;
  return removed;
}

u32 Iommu::live_entries() const {
  u32 n = 0;
  for (const Entry& e : iotlb_) n += e.valid ? 1 : 0;
  return n;
}

u32 Iommu::live_entries_of(IommuAsid asid) const {
  u32 n = 0;
  for (const Entry& e : iotlb_) n += (e.valid && e.asid == asid) ? 1 : 0;
  return n;
}

}  // namespace vcop::mem
