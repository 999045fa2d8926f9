#include "os/oracle.h"

#include <algorithm>

namespace vcop::os {

OraclePolicy::OraclePolicy(std::shared_ptr<const PageRefTrace> trace)
    : trace_(std::move(trace)) {
  VCOP_CHECK_MSG(trace_ != nullptr, "oracle needs a recorded trace");
  for (u64 i = 0; i < trace_->size(); ++i) {
    const PageRef& ref = (*trace_)[i];
    positions_[PageKey{ref.object, ref.vpage}].push_back(i);
  }
}

void OraclePolicy::Reset(u32 num_frames) {
  frame_page_.assign(num_frames, {false, PageKey{}});
  cursor_ = 0;
}

void OraclePolicy::OnReference(hw::ObjectId object, mem::VirtPage vpage) {
  // Cross-check the replay against the recording: a divergence means
  // the reference string was not policy-independent after all, which
  // would invalidate the oracle's answers.
  if (cursor_ < trace_->size()) {
    const PageRef& expected = (*trace_)[cursor_];
    VCOP_CHECK_MSG(
        expected.object == object && expected.vpage == vpage,
        "replayed reference diverged from the recorded trace");
  }
  ++cursor_;
}

void OraclePolicy::OnInstalled(mem::FrameId frame, hw::ObjectId object,
                               mem::VirtPage vpage) {
  VCOP_CHECK_MSG(frame < frame_page_.size(), "frame out of range");
  frame_page_[frame] = {true, PageKey{object, vpage}};
}

void OraclePolicy::OnFreed(mem::FrameId frame) {
  VCOP_CHECK_MSG(frame < frame_page_.size(), "frame out of range");
  frame_page_[frame].first = false;
}

u64 OraclePolicy::NextUse(const PageKey& page) const {
  const auto it = positions_.find(page);
  if (it == positions_.end()) return ~u64{0};
  const std::vector<u64>& uses = it->second;
  const auto next = std::lower_bound(uses.begin(), uses.end(), cursor_);
  return next == uses.end() ? ~u64{0} : *next;
}

mem::FrameId OraclePolicy::PickVictim(const std::vector<bool>& evictable) {
  mem::FrameId best = 0;
  u64 best_next = 0;
  bool found = false;
  for (mem::FrameId f = 0; f < evictable.size(); ++f) {
    if (!evictable[f]) continue;
    // A frame the VIM may evict but whose page identity we never saw
    // (should not happen — OnInstalled mirrors every install) is
    // treated as never-used-again, i.e. a perfect victim.
    const u64 next =
        frame_page_[f].first ? NextUse(frame_page_[f].second) : ~u64{0};
    if (!found || next > best_next) {
      best = f;
      best_next = next;
      found = true;
    }
  }
  VCOP_CHECK_MSG(found, "PickVictim with nothing evictable");
  return best;
}

}  // namespace vcop::os
