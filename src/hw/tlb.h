// The IMU's Translation Lookaside Buffer.
//
// "The key part of the IMU is actually the TLB that performs address
// translation for coprocessor accesses. [...] an upper part of the
// coprocessor address is matched to the patterns in the translation
// table. [...] The TLB also contains invalidity and dirtiness
// information, like in typical VMM systems." (§3.2)
//
// Entries are fully associative (the EPXA1 implementation used a CAM).
// The tag is the pair (object id, virtual page); the payload is a
// physical frame of the dual-port RAM. Entries are installed and
// invalidated only by the OS (the VIM); the IMU itself only looks up
// and sets dirty bits.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "base/fault.h"
#include "base/status.h"
#include "base/types.h"
#include "mem/page.h"

namespace vcop::hw {

/// Coprocessor-visible object identifier (0..15; "a number agreed by
/// the hardware and software designers", §3.1).
using ObjectId = u8;

constexpr ObjectId kMaxObjects = 16;

/// Reserved object id through which the coprocessor reads its scalar
/// parameters from the parameter-passing page (§3.2).
constexpr ObjectId kParamObject = kMaxObjects - 1;

/// Address-space identifier widening the CAM tag for multi-tenant
/// service (os/vcopd.h): entries of one tenant survive a switch to
/// another without a full flush, exactly like ASID-tagged MMU TLBs.
/// 0 is the kernel's default (single-tenant) space, so every legacy
/// call site that never mentions ASIDs keeps its exact behaviour.
using Asid = u16;

struct TlbEntry {
  bool valid = false;
  bool dirty = false;
  /// Set by the IMU on every translation hit; harvested and cleared by
  /// the OS to approximate recency (like an MMU's accessed bit).
  bool accessed = false;
  ObjectId object = 0;
  Asid asid = 0;
  mem::VirtPage vpage = 0;
  mem::FrameId frame = 0;
  /// Parity over the tag+payload, recomputed by the CAM on every match.
  /// A corrupted entry (fault injection) fails the check; the hardware
  /// then treats the entry as invalid and the lookup as a miss, so the
  /// OS refill path repairs the mapping instead of the coprocessor
  /// silently reading the wrong frame.
  bool parity_ok = true;
};

struct TlbStats {
  u64 lookups = 0;
  u64 hits = 0;
  u64 misses = 0;
  /// Matches discarded because the entry failed its parity check.
  u64 parity_errors = 0;
  /// Entries written by the OS (fault services, refills and the
  /// parameter page).
  u64 installs = 0;
};

/// The counts accumulated between the snapshots `since` and `now`.
inline TlbStats operator-(const TlbStats& now, const TlbStats& since) {
  return TlbStats{now.lookups - since.lookups, now.hits - since.hits,
                  now.misses - since.misses,
                  now.parity_errors - since.parity_errors,
                  now.installs - since.installs};
}

/// Adds one window's counts (a `now - since` delta) to `into`.
inline TlbStats& operator+=(TlbStats& into, const TlbStats& delta) {
  into.lookups += delta.lookups;
  into.hits += delta.hits;
  into.misses += delta.misses;
  into.parity_errors += delta.parity_errors;
  into.installs += delta.installs;
  return into;
}

class Tlb {
 public:
  /// `num_entries` >= 1. The EPXA1 system uses 8 (one per DP-RAM page).
  explicit Tlb(u32 num_entries);

  u32 num_entries() const { return static_cast<u32>(entries_.size()); }

  /// CAM lookup: returns the index of the valid entry matching
  /// (asid, object, vpage), or nullopt on a miss. Updates hit/miss
  /// counters.
  std::optional<u32> Lookup(ObjectId object, mem::VirtPage vpage,
                            Asid asid = 0);

  /// Lookup without touching the statistics (used by the OS when it
  /// inspects IMU state during fault handling).
  std::optional<u32> Probe(ObjectId object, mem::VirtPage vpage,
                           Asid asid = 0) const;

  /// Records a hit on entry `index` without a CAM scan — the IMU's
  /// last-translation cache uses this when its cached entry is provably
  /// still current (same generation()). Statistics and the accessed bit
  /// end up exactly as if Lookup had matched `index`.
  void NoteHit(u32 index);

  /// Incremented whenever the set of valid mappings can change
  /// (Install / Invalidate / InvalidateAll — not dirty/accessed-bit
  /// traffic). A cached lookup result is valid iff its generation
  /// still matches.
  u64 generation() const { return generation_; }

  /// OS interface: writes entry `index` (clears dirty).
  void Install(u32 index, ObjectId object, mem::VirtPage vpage,
               mem::FrameId frame, Asid asid = 0);

  /// OS interface: invalidates entry `index`; returns the entry as it
  /// was (so the OS can propagate its dirty bit to the page tables).
  TlbEntry Invalidate(u32 index);

  /// Invalidates every entry: the ASID allocator's rollover, before a
  /// recycled tag could alias its previous owner's entries. A tenant
  /// switch flushes nothing.
  void InvalidateAll();

  /// Invalidates only the entries tagged `asid` (tenant teardown,
  /// execution start and end). Returns how many were dropped.
  u32 InvalidateAsid(Asid asid);

  /// IMU datapath: marks entry `index` dirty after a write access.
  void MarkDirty(u32 index);

  /// OS interface: clears the dirty bit after the page was cleaned
  /// (written back without being evicted).
  void ClearDirty(u32 index);

  /// Returns the frames of entries accessed since the last harvest and
  /// clears their accessed bits. OS-side recency source for LRU.
  std::vector<mem::FrameId> HarvestAccessed();

  /// Finds the valid entry mapping physical frame `frame`, if any.
  std::optional<u32> FindByFrame(mem::FrameId frame) const;

  /// Finds an invalid entry to install into, if any.
  std::optional<u32> FindFree() const;

  const TlbEntry& entry(u32 index) const;
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  /// Installs (or clears) the fault plan; kTlbParity opportunities are
  /// counted at Install time (the corruption happens on the write).
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Called with the dropped entry (as it was) whenever a lookup
  /// discards a parity-corrupt entry, so the OS can propagate its dirty
  /// bit before the mapping disappears.
  void set_parity_drop_hook(std::function<void(const TlbEntry&)> hook) {
    parity_drop_hook_ = std::move(hook);
  }

 private:
  std::vector<TlbEntry> entries_;
  TlbStats stats_;
  u64 generation_ = 0;
  FaultPlan* fault_plan_ = nullptr;
  std::function<void(const TlbEntry&)> parity_drop_hook_;
};

}  // namespace vcop::hw
