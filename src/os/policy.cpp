#include "os/policy.h"

#include <algorithm>
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

/// FIFO: evict the page installed the longest ago, regardless of use.
class FifoPolicy : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "fifo"; }

  void Reset(u32 num_frames) override {
    install_seq_.assign(num_frames, 0);
    clock_ = 0;
  }

  void OnInstalled(mem::FrameId frame) override {
    install_seq_[frame] = ++clock_;
  }

  void OnTouched(mem::FrameId) override {}
  void OnFreed(mem::FrameId frame) override { install_seq_[frame] = 0; }

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    const std::optional<mem::FrameId> oldest = Oldest(evictable);
    VCOP_CHECK_MSG(oldest.has_value(), "PickVictim with nothing evictable");
    return *oldest;
  }

 protected:
  /// The earliest-installed frame with `candidates[frame]` true.
  std::optional<mem::FrameId> Oldest(
      const std::vector<bool>& candidates) const {
    std::optional<mem::FrameId> best;
    for (mem::FrameId f = 0; f < candidates.size(); ++f) {
      if (!candidates[f]) continue;
      if (!best.has_value() || install_seq_[f] < install_seq_[*best]) best = f;
    }
    return best;
  }

 private:
  std::vector<u64> install_seq_;
  u64 clock_ = 0;
};

/// FIFO with a working-set guard. A demand fault that breaks its
/// object's sequential run (neither the object's first fault nor on the
/// same or next page as its previous one) is a random access: it evicts
/// the oldest frame that was not referenced since the previous fault and
/// holds no unreferenced prefetched page, so the pages every access
/// touches stay resident. Sequential faults, and non-sequential ones
/// that find every candidate guarded, evict exactly as FIFO does.
class WsFifoPolicy final : public FifoPolicy {
 public:
  std::string_view name() const override { return "wsfifo"; }

  mem::FrameId PickDemandVictim(const std::vector<bool>& evictable,
                                const DemandFault& fault) override {
    const bool sequential = !fault.previous.has_value() ||
                            fault.vpage == *fault.previous ||
                            fault.vpage == *fault.previous + 1;
    if (!sequential) {
      std::vector<bool> cold = evictable;
      for (mem::FrameId f = 0; f < cold.size(); ++f) {
        if (Flagged(fault.referenced, f) || Flagged(fault.speculative, f)) {
          cold[f] = false;
        }
      }
      if (const std::optional<mem::FrameId> victim = Oldest(cold)) {
        return *victim;
      }
    }
    return PickVictim(evictable);
  }

 private:
  static bool Flagged(const std::vector<bool>& mask, mem::FrameId f) {
    return f < mask.size() && mask[f];
  }
};

/// LRU over the recency the OS can actually observe: TLB accessed bits
/// harvested at faults (OnTouched) plus installation time.
class LruPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "lru"; }

  void Reset(u32 num_frames) override {
    last_use_.assign(num_frames, 0);
    clock_ = 0;
  }

  void OnInstalled(mem::FrameId frame) override { last_use_[frame] = ++clock_; }
  void OnTouched(mem::FrameId frame) override { last_use_[frame] = ++clock_; }
  void OnFreed(mem::FrameId frame) override { last_use_[frame] = 0; }

  mem::FrameId PickVictim(const std::vector<bool>& evictable) override {
    mem::FrameId best = 0;
    u64 best_use = ~u64{0};
    bool found = false;
    for (mem::FrameId f = 0; f < evictable.size(); ++f) {
      if (!evictable[f]) continue;
      if (!found || last_use_[f] < best_use) {
        best = f;
        best_use = last_use_[f];
        found = true;
      }
    }
    VCOP_CHECK_MSG(found, "PickVictim with nothing evictable");
    return best;
  }

 private:
  std::vector<u64> last_use_;
  u64 clock_ = 0;
};

/// Uniformly random among evictable frames (deterministic in the seed).
class RandomPolicy final : public ReplacementPolicy {
 public:
  explicit RandomPolicy(u64 seed) : rng_(seed) {}

  std::string_view name() const override { return "random"; }
  void Reset(u32) override {}
  void OnInstalled(mem::FrameId) override {}
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
