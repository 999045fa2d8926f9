#include "os/page_manager.h"

namespace vcop::os {

PageManager::PageManager(mem::PageGeometry geometry)
    : geometry_(geometry),
      frames_(geometry.num_frames()) {}

void PageManager::Reset() {
  frames_.assign(frames_.size(), FrameState{});
  in_use_ = 0;
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

std::optional<mem::FrameId> PageManager::FindFree() const {
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    if (!frames_[f].in_use) return f;
  }
  return std::nullopt;
}

std::optional<mem::FrameId> PageManager::FindFreeRun(u32 span) const {
  VCOP_CHECK_MSG(span >= 1, "FindFreeRun needs span >= 1");
  if (span > frames_.size()) return std::nullopt;
  u32 run = 0;
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    run = frames_[f].in_use ? 0 : run + 1;
    if (run == span) return f + 1 - span;
  }
  return std::nullopt;
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
}

FrameState PageManager::Release(mem::FrameId frame) {
  FrameState& s = MutableFrame(frame);
  VCOP_CHECK_MSG(s.in_use, "Release of a free frame");
  VCOP_CHECK_MSG(!s.continuation, "Release of a superpage tail");
  const FrameState old = s;
  for (u32 i = 0; i < old.span; ++i) frames_[frame + i] = FrameState{};
  in_use_ -= old.span;
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

const FrameState& PageManager::frame(mem::FrameId frame) const {
  VCOP_CHECK_MSG(frame < frames_.size(), "frame id out of range");
  return frames_[frame];
}

FrameState& PageManager::MutableFrame(mem::FrameId frame) {
  VCOP_CHECK_MSG(frame < frames_.size(), "frame id out of range");
  return frames_[frame];
}

std::vector<bool> PageManager::EvictableMask() const {
  // Superpage tails are excluded: eviction always targets the head,
  // which releases the whole run.
  std::vector<bool> mask(frames_.size());
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    mask[f] = frames_[f].in_use && !frames_[f].pinned &&
              !frames_[f].continuation;
  }
  return mask;
}

std::vector<mem::FrameId> PageManager::InUseFrames() const {
  std::vector<mem::FrameId> out;
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    if (frames_[f].in_use && !frames_[f].continuation) out.push_back(f);
  }
  return out;
}

std::vector<mem::FrameId> PageManager::InUseFramesOf(hw::Asid asid) const {
  std::vector<mem::FrameId> out;
  for (mem::FrameId f = 0; f < frames_.size(); ++f) {
    if (frames_[f].in_use && !frames_[f].continuation &&
        frames_[f].asid == asid) {
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace vcop::os
