#include "os/page_manager.h"

#include <utility>

namespace vcop::os {

PageManager::PageManager(mem::PageGeometry geometry)
    : geometry_(geometry),
      frames_(geometry.num_frames()),
      evictable_(geometry.num_frames()) {
  SetPolicy(MakePolicy(PolicyKind::kWsFifo, /*seed=*/1));
}

void PageManager::SetPolicy(std::unique_ptr<ReplacementPolicy> policy) {
  VCOP_CHECK_MSG(policy != nullptr, "null policy");
  policy_ = std::move(policy);
  policy_->Reset(num_frames());
}

std::optional<mem::FrameId> PageManager::FindResident(
    hw::ObjectId object, mem::VirtPage vpage, hw::Asid asid) const {
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    const FrameState& s = frames_[f];
    if (s.in_use && !s.continuation && s.object == object &&
        s.vpage == vpage && s.asid == asid) {
      return f;
    }
  }
  return std::nullopt;
}

std::optional<mem::FrameId> PageManager::Choose(u32 span,
                                                const DemandFault* demand) {
  VCOP_CHECK_MSG(span >= 1, "Choose needs span >= 1");
  u32 run = 0;
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    run = frames_[f].in_use ? 0 : run + 1;
    if (run == span) return f + 1 - span;
  }

  if (span == 1) {
    // Superpage tails are never candidates: eviction targets the head,
    // which releases the whole run.
    bool any = false;
    for (mem::FrameId f = 0; f < frames_.size(); ++f) {
      const FrameState& s = frames_[f];
      evictable_[f] = s.in_use && !s.pinned && !s.continuation;
      any = any || evictable_[f];
    }
    if (!any) return std::nullopt;
    return demand == nullptr ? policy_->PickVictim(evictable_)
                             : policy_->PickDemandVictim(evictable_, *demand);
  }

  // Hot-avoidance keeps two streaming superpage objects from
  // ping-ponging each other out of memory: without it the scan would
  // clear the lowest window every fault, which is exactly where the
  // other object's active page lives.
  VCOP_CHECK_MSG(demand != nullptr, "a superpage is chosen for a demand fault");
  const std::vector<bool>& hot = demand->referenced;
  std::optional<mem::FrameId> best;
  u32 best_hot = 0;
  u32 best_runs = 0;
  for (mem::FrameId start = 0; start + span <= frames_.size(); ++start) {
    u32 hot_runs = 0;
    u32 runs = 0;
    bool feasible = true;
    for (mem::FrameId f = start; feasible && f < start + span; ++f) {
      // Runs are contiguous: one that overlaps the window is met first
      // at its head, or at the window's first frame.
      const FrameState& s = frames_[f];
      if (!s.in_use || (s.continuation && f != start)) continue;
      const mem::FrameId head = s.continuation ? s.head : f;
      feasible = !frames_[head].pinned;
      ++runs;
      if (head < hot.size() && hot[head]) ++hot_runs;
    }
    if (!feasible) continue;
    if (!best.has_value() || hot_runs < best_hot ||
        (hot_runs == best_hot && runs < best_runs)) {
      best = start;
      best_hot = hot_runs;
      best_runs = runs;
    }
  }
  return best;
}

void PageManager::Install(mem::FrameId frame, hw::ObjectId object,
                          mem::VirtPage vpage, bool pinned, hw::Asid asid,
                          u32 span) {
  VCOP_CHECK_MSG(span >= 1, "Install needs span >= 1");
  VCOP_CHECK_MSG(static_cast<u64>(frame) + span <= frames_.size(),
                 "superpage run exceeds the frame array");
  for (u32 i = 0; i < span; ++i) {
    VCOP_CHECK_MSG(!frames_[frame + i].in_use,
                   "Install into an occupied frame");
  }
  VCOP_CHECK_MSG(!FindResident(object, vpage, asid).has_value(),
                 "page is already resident in another frame");
  FrameState next;
  next.in_use = true;
  next.pinned = pinned;
  next.object = object;
  next.asid = asid;
  next.vpage = vpage;
  next.span = span;
  frames_[frame] = next;
  for (u32 i = 1; i < span; ++i) {
    FrameState tail = next;
    tail.span = 1;
    tail.continuation = true;
    tail.head = frame;
    frames_[frame + i] = tail;
  }
  in_use_ += span;
  policy_->OnInstalled(frame, object, vpage);
}

FrameState PageManager::Release(mem::FrameId frame) {
  FrameState& s = MutableFrame(frame);
  VCOP_CHECK_MSG(s.in_use, "Release of a free frame");
  VCOP_CHECK_MSG(!s.continuation, "Release of a superpage tail");
  const FrameState old = s;
  for (u32 i = 0; i < old.span; ++i) frames_[frame + i] = FrameState{};
  in_use_ -= old.span;
  policy_->OnFreed(frame);
  return old;
}

void PageManager::MarkDirty(mem::FrameId frame) {
  FrameState& s = MutableFrame(frame);
  VCOP_CHECK_MSG(s.in_use && !s.continuation, "MarkDirty on a free frame");
  s.dirty = true;
}

void PageManager::ClearDirty(mem::FrameId frame) {
  FrameState& s = MutableFrame(frame);
  VCOP_CHECK_MSG(s.in_use && !s.continuation, "ClearDirty on a free frame");
  s.dirty = false;
}

void PageManager::MarkReferenced(mem::FrameId frame) {
  FrameState& s = MutableFrame(frame);
  VCOP_CHECK_MSG(s.in_use && !s.continuation,
                 "MarkReferenced on a free frame");
  s.referenced = true;
}

void PageManager::Touch(mem::FrameId frame) {
  policy_->OnTouched(frame);
  MarkReferenced(frame);
}

const FrameState& PageManager::frame(mem::FrameId frame) const {
  VCOP_CHECK_MSG(frame < frames_.size(), "frame id out of range");
  return frames_[frame];
}

FrameState& PageManager::MutableFrame(mem::FrameId frame) {
  VCOP_CHECK_MSG(frame < frames_.size(), "frame id out of range");
  return frames_[frame];
}

}  // namespace vcop::os
