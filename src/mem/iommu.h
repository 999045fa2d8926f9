// IOMMU: the transfer engine's translation stage for zero-copy DMA.
//
// The paper's VIM copies every page through the CPU (§4.1 even does it
// twice). In CopyMode::kIommu the CPU leaves the data path: the DMA
// master issues *user virtual addresses*, and an IO-TLB in front of the
// bus translates (asid, vpage) -> user frame, walking the owning
// tenant's address-space tables on a miss. Pages referenced by an
// in-flight DMA are pinned so the OS cannot reclaim them under the
// device; shootdowns keep the IO-TLB coherent with FlushAsid/context
// switch. Modelled on the ARMv8 IOMMU/RDMA thesis (PAPERS.md), which
// puts the IOMMU in front of the DMA engine as a translation stage.
//
// Layering: mem::Iommu moves no data and knows nothing about the OS.
// mem::TransferEngine owns it and consults it on every kIommu transfer;
// the VIM installs a `walker` callback that validates an (asid, page)
// pair against the owning AddressSpace.
#pragma once

#include <functional>
#include <vector>

#include "base/fault.h"
#include "base/field.h"
#include "base/units.h"
#include "mem/user_memory.h"

namespace vcop::mem {

/// Address-space id as seen by the IOMMU. Mirrors hw::Asid (u16)
/// without pulling hw/ headers into mem/.
using IommuAsid = u16;

/// IO-TLB capacity of the modelled IOMMU.
inline constexpr u32 kIotlbEntries = 16;

/// Counters for the IO-TLB and the DMA pins.
struct IommuStats {
  u64 iotlb_hits = 0;
  u64 iotlb_misses = 0;
  u64 iotlb_evictions = 0;   // valid entries displaced by refills
  u64 walks = 0;             // page-table walks performed (= installs)
  u64 shootdowns = 0;        // invalidate operations issued
  u64 entries_shot_down = 0; // live entries those operations removed
  u64 translation_faults = 0;
  u64 iotlb_parity_drops = 0;  // corrupt entries detected at use
  u64 pages_pinned = 0;
  u64 pages_unpinned = 0;
};

/// Every IommuStats field by dotted name.
inline std::vector<Field> FieldsOf(const IommuStats& s) {
  static_assert(sizeof(IommuStats) == 10 * sizeof(u64));
  return {
      {"iommu.iotlb_hits", s.iotlb_hits},
      {"iommu.iotlb_misses", s.iotlb_misses},
      {"iommu.iotlb_evictions", s.iotlb_evictions},
      {"iommu.walks", s.walks},
      {"iommu.shootdowns", s.shootdowns},
      {"iommu.entries_shot_down", s.entries_shot_down},
      {"iommu.translation_faults", s.translation_faults},
      {"iommu.iotlb_parity_drops", s.iotlb_parity_drops},
      {"iommu.pages_pinned", s.pages_pinned},
      {"iommu.pages_unpinned", s.pages_unpinned},
  };
}

class Iommu {
 public:
  /// Validates that `asid` may DMA the 4 KB user page at `page_base`.
  /// Installed by the VIM; called once per IO-TLB miss.
  using Walker = std::function<bool(IommuAsid asid, UserAddr page_base)>;

  /// Outcome of translating one DMA's user range.
  struct Translation {
    bool ok = true;
    Picoseconds time = 0;  // walk cycles spent, success or not
  };

  /// `walk_cycles` on `clock` is the per-miss table-walk cost;
  /// `iotlb_entries` must be a power of two.
  Iommu(Frequency clock, u32 walk_cycles, u32 iotlb_entries);

  void set_walker(Walker walker) { walker_ = std::move(walker); }
  /// Fault plan consulted per translated page (kIotlbCorrupt on hits,
  /// kIommuTranslationFault on walks). Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Translates every 4 KB page of [addr, addr+len), refilling the
  /// IO-TLB as needed. Stops at the first faulting page.
  Translation Translate(IommuAsid asid, UserAddr addr, u32 len);

  /// Pins the user pages a DMA references for its duration, so
  /// reclamation cannot pull them out from under the device.
  void PinRange(UserMemory& user, UserAddr addr, u32 len);
  void UnpinRange(UserMemory& user, UserAddr addr, u32 len);

  /// IO-TLB shootdown of one ASID. Returns the number of live entries
  /// removed.
  u64 InvalidateAsid(IommuAsid asid);

  u32 live_entries() const;
  u32 live_entries_of(IommuAsid asid) const;
  const IommuStats& stats() const { return stats_; }

 private:
  struct Entry {
    bool valid = false;
    IommuAsid asid = 0;
    u32 vpage = 0;  // user VA >> kUserPageShift
    u32 frame = 0;  // user frame number (flat space: identity map)
  };

  bool TranslateOnePage(IommuAsid asid, u32 vpage, Translation& t);

  Frequency clock_;
  u32 walk_cycles_ = 0;
  std::vector<Entry> iotlb_;
  u32 evict_cursor_ = 0;
  Walker walker_;
  FaultPlan* fault_plan_ = nullptr;
  IommuStats stats_;
};

}  // namespace vcop::mem
