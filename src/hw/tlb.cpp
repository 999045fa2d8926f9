#include "hw/tlb.h"

namespace vcop::hw {

Tlb::Tlb(u32 num_entries) : entries_(num_entries) {
  VCOP_CHECK_MSG(num_entries >= 1, "TLB needs at least one entry");
}

std::optional<u32> Tlb::Lookup(ObjectId object, mem::VirtPage vpage,
                               Asid asid) {
  ++stats_.lookups;
  const std::optional<u32> idx = Probe(object, vpage, asid);
  if (idx.has_value()) {
    if (!entries_[*idx].parity_ok) {
      // The CAM match hit a corrupted entry: the parity check rejects
      // it, the entry is dropped, and the access takes the miss path so
      // the OS re-installs a good mapping.
      ++stats_.parity_errors;
      const TlbEntry old = entries_[*idx];
      entries_[*idx] = TlbEntry{};
      ++generation_;
      if (parity_drop_hook_) parity_drop_hook_(old);
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    entries_[*idx].accessed = true;
  } else {
    ++stats_.misses;
  }
  return idx;
}

void Tlb::NoteHit(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "NoteHit on invalid entry");
  ++stats_.lookups;
  ++stats_.hits;
  entries_[index].accessed = true;
}

std::optional<u32> Tlb::Probe(ObjectId object, mem::VirtPage vpage,
                              Asid asid) const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    const TlbEntry& e = entries_[i];
    if (e.valid && e.object == object && e.vpage == vpage &&
        e.asid == asid) {
      return i;
    }
  }
  return std::nullopt;
}

void Tlb::Install(u32 index, ObjectId object, mem::VirtPage vpage,
                  mem::FrameId frame, Asid asid) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(object < kMaxObjects, "object id out of range");
  TlbEntry entry;
  entry.valid = true;
  entry.object = object;
  entry.asid = asid;
  entry.vpage = vpage;
  entry.frame = frame;
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kTlbParity)) {
    entry.parity_ok = false;
  }
  entries_[index] = entry;
  ++stats_.installs;
  ++generation_;
}

TlbEntry Tlb::Invalidate(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  TlbEntry old = entries_[index];
  entries_[index] = TlbEntry{};
  ++generation_;
  return old;
}

void Tlb::InvalidateAll() {
  for (TlbEntry& e : entries_) e = TlbEntry{};
  ++generation_;
}

u32 Tlb::InvalidateAsid(Asid asid) {
  u32 dropped = 0;
  for (TlbEntry& e : entries_) {
    if (e.valid && e.asid == asid) {
      e = TlbEntry{};
      ++dropped;
    }
  }
  if (dropped != 0) ++generation_;
  return dropped;
}

void Tlb::MarkDirty(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "MarkDirty on invalid entry");
  entries_[index].dirty = true;
}

void Tlb::ClearDirty(u32 index) {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  VCOP_CHECK_MSG(entries_[index].valid, "ClearDirty on invalid entry");
  entries_[index].dirty = false;
}

std::optional<u32> Tlb::FindByFrame(mem::FrameId frame) const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    if (entries_[i].valid && entries_[i].frame == frame) return i;
  }
  return std::nullopt;
}

std::optional<u32> Tlb::FindFree() const {
  for (u32 i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) return i;
  }
  return std::nullopt;
}

const TlbEntry& Tlb::entry(u32 index) const {
  VCOP_CHECK_MSG(index < entries_.size(), "TLB index out of range");
  return entries_[index];
}

}  // namespace vcop::hw
