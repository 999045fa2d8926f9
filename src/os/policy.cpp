#include "os/policy.h"

#include <vector>

namespace vcop::os {

std::string_view ToString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kRandom: return "random";
    case PolicyKind::kWsFifo: return "wsfifo";
  }
  return "?";
}

namespace {

/// One stamp per frame from a monotonic clock, and the scan for the
/// frame stamped longest ago. FIFO stamps a frame when a page is
/// installed in it; LRU stamps it on every observed touch as well.
class StampClock {
 public:
  void Reset(u32 num_frames) {
    stamps_.assign(num_frames, 0);
    clock_ = 0;
  }
  void Stamp(mem::FrameId frame) { stamps_[frame] = ++clock_; }
  void Clear(mem::FrameId frame) { stamps_[frame] = 0; }

  /// The frame with `candidates[frame]` true stamped the longest ago
  /// (lowest index on ties).
  std::optional<mem::FrameId> Oldest(
      const std::vector<bool>& candidates) const {
    std::optional<mem::FrameId> best;
    for (mem::FrameId f = 0; f < candidates.size(); ++f) {
      if (!candidates[f]) continue;
      if (!best.has_value() || stamps_[f] < stamps_[*best]) best = f;
    }
    return best;
  }

  /// Same, for a victim scan: at least one frame must be a candidate.
  mem::FrameId Victim(const std::vector<bool>& evictable) const {
    const std::optional<mem::FrameId> oldest = Oldest(evictable);
    VCOP_CHECK_MSG(oldest.has_value(), "PickVictim with nothing evictable");
    return *oldest;
  }

 private:
  std::vector<u64> stamps_;
  u64 clock_ = 0;
};

/// FIFO: evict the page installed the longest ago, regardless of use.
class FifoPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "fifo"; }

  void Reset(u32 num_frames) override { installed_.Reset(num_frames); }
  void OnInstalled(mem::FrameId frame, hw::ObjectId, mem::VirtPage) override {
    installed_.Stamp(frame);
  }
  void OnTouched(mem::FrameId) override {}
  void OnFreed(mem::FrameId frame) override { installed_.Clear(frame); }

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    return installed_.Victim(evictable);
  }

 private:
  StampClock installed_;
};

/// FIFO with a working-set guard. A demand fault that breaks its
/// object's sequential run (neither the object's first fault nor on the
/// same or next page as its previous one) is a random access: it evicts
/// the oldest frame that was not referenced since the previous fault, so
/// the pages every access touches stay resident. A re-fault (a page its
/// space evicted after using it) is the sign of a working set larger
/// than the frames: it evicts the least recently used frame. Every other
/// demand fault, and a non-sequential one that finds every candidate
/// referenced, evicts exactly as FIFO does.
class WsFifoPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "wsfifo"; }

  void Reset(u32 num_frames) override {
    installed_.Reset(num_frames);
    used_.Reset(num_frames);
  }
  void OnInstalled(mem::FrameId frame, hw::ObjectId, mem::VirtPage) override {
    installed_.Stamp(frame);
    used_.Stamp(frame);
  }
  void OnTouched(mem::FrameId frame) override { used_.Stamp(frame); }
  void OnFreed(mem::FrameId frame) override {
    installed_.Clear(frame);
    used_.Clear(frame);
  }

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    return installed_.Victim(evictable);
  }

  mem::FrameId PickDemandVictim(const std::vector<bool>& evictable,
                                const DemandFault& fault) override {
    if (fault.refault) return used_.Victim(evictable);
    const bool sequential = !fault.previous.has_value() ||
                            fault.vpage == *fault.previous ||
                            fault.vpage == *fault.previous + 1;
    if (!sequential) {
      if (const std::optional<mem::FrameId> victim =
              installed_.Oldest(Without(evictable, fault.referenced))) {
        return *victim;
      }
    }
    return PickVictim(evictable);
  }

 private:
  /// `candidates` with every frame flagged in `mask` removed.
  static std::vector<bool> Without(std::vector<bool> candidates,
                                   const std::vector<bool>& mask) {
    for (mem::FrameId f = 0; f < candidates.size() && f < mask.size(); ++f) {
      if (mask[f]) candidates[f] = false;
    }
    return candidates;
  }

  /// FIFO's install order and LRU's use order.
  StampClock installed_;
  StampClock used_;
};

/// LRU over the recency the OS can actually observe: TLB accessed bits
/// harvested at faults (OnTouched) plus installation time.
class LruPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "lru"; }

  void Reset(u32 num_frames) override { used_.Reset(num_frames); }
  void OnInstalled(mem::FrameId frame, hw::ObjectId, mem::VirtPage) override {
    used_.Stamp(frame);
  }
  void OnTouched(mem::FrameId frame) override { used_.Stamp(frame); }
  void OnFreed(mem::FrameId frame) override { used_.Clear(frame); }

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    return used_.Victim(evictable);
  }

 private:
  StampClock used_;
};

/// Uniformly random among evictable frames (deterministic in the seed).
class RandomPolicy final : public ReplacementPolicy {
 public:
  explicit RandomPolicy(u64 seed) : rng_(seed) {}

  std::string_view name() const override { return "random"; }
  void Reset(u32) override {}
  void OnInstalled(mem::FrameId, hw::ObjectId, mem::VirtPage) override {}
  void OnTouched(mem::FrameId) override {}
  void OnFreed(mem::FrameId) override {}

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    std::vector<mem::FrameId> candidates;
    for (mem::FrameId f = 0; f < evictable.size(); ++f) {
      if (evictable[f]) candidates.push_back(f);
    }
    VCOP_CHECK_MSG(!candidates.empty(), "PickVictim with nothing evictable");
    return candidates[rng_.NextBelow(candidates.size())];
  }

 private:
  Rng rng_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakePolicy(PolicyKind kind, u64 seed) {
  switch (kind) {
    case PolicyKind::kFifo: return std::make_unique<FifoPolicy>();
    case PolicyKind::kLru: return std::make_unique<LruPolicy>();
    case PolicyKind::kRandom: return std::make_unique<RandomPolicy>(seed);
    case PolicyKind::kWsFifo: return std::make_unique<WsFifoPolicy>();
  }
  VCOP_CHECK(false);
  return nullptr;
}

}  // namespace vcop::os
