#include "os/prefetch.h"

#include <array>
#include <cstdlib>

#include "base/status.h"

namespace vcop::os {

std::string_view ToString(PrefetchKind kind) {
  switch (kind) {
    case PrefetchKind::kNone: return "none";
    case PrefetchKind::kSequential: return "sequential";
    case PrefetchKind::kAdaptive: return "adaptive";
    case PrefetchKind::kClean: return "clean";
  }
  return "?";
}

namespace {

/// Appends vpage + stride*d for d = 1..depth, dropping anything that
/// leaves [0, num_pages). The VIM re-checks the contract anyway; the
/// strategies stay polite so dropped-suggestion counters mean "bug".
void SuggestAlong(std::vector<PrefetchSuggestion>& out, hw::ObjectId object,
                  mem::VirtPage vpage, i64 stride, u32 depth,
                  u32 num_pages) {
  for (u32 d = 1; d <= depth; ++d) {
    const i64 next = static_cast<i64>(vpage) + stride * static_cast<i64>(d);
    if (next < 0 || next >= static_cast<i64>(num_pages)) break;
    out.push_back(
        PrefetchSuggestion{object, static_cast<mem::VirtPage>(next)});
  }
}

class NonePrefetcher final : public Prefetcher {
 public:
  std::string_view name() const override { return "none"; }
  std::vector<PrefetchSuggestion> Suggest(hw::ObjectId, mem::VirtPage,
                                          u32) override {
    return {};
  }
};

/// Streams: after a fault on page p, also bring in p+1..p+depth of the
/// same object — both paper benchmarks walk their objects sequentially.
class SequentialPrefetcher final : public Prefetcher {
 public:
  explicit SequentialPrefetcher(u32 depth) : depth_(depth) {
    VCOP_CHECK_MSG(depth >= 1, "prefetch depth must be >= 1");
  }

  std::string_view name() const override { return "sequential"; }

  std::vector<PrefetchSuggestion> Suggest(hw::ObjectId object,
                                          mem::VirtPage vpage,
                                          u32 num_pages) override {
    std::vector<PrefetchSuggestion> out;
    SuggestAlong(out, object, vpage, /*stride=*/1, depth_, num_pages);
    return out;
  }

 private:
  u32 depth_;
};

/// Reference-prediction table (Chen & Baer): each object owns a few
/// stream slots, each slot a (last, stride) pair driven by the classic
/// two-bit automaton init/transient/steady/no-pred. A fault is matched
/// to the slot that predicted it (last + stride), else to the nearest
/// slot within a window (stride re-learned), else it replaces the
/// weakest slot. Only steady streams issue prefetches, so irregular
/// objects degrade to a no-op instead of guessing; interleaved streams
/// (conv2d's three live rows faulting in rotation) each keep their own
/// slot and their own +1 stride.
class AdaptivePrefetcher final : public Prefetcher {
 public:
  explicit AdaptivePrefetcher(u32 depth) : depth_(depth) {
    VCOP_CHECK_MSG(depth >= 1, "prefetch depth must be >= 1");
  }

  std::string_view name() const override { return "adaptive"; }

  std::vector<PrefetchSuggestion> Suggest(hw::ObjectId object,
                                          mem::VirtPage vpage,
                                          u32 num_pages) override {
    VCOP_CHECK_MSG(object < hw::kMaxObjects, "object id out of range");
    std::array<Stream, kStreamsPerObject>& streams = table_[object];
    std::vector<PrefetchSuggestion> out;

    // 1. A stream predicted exactly this page: promote and follow it.
    for (Stream& s : streams) {
      if (!s.valid || s.stride == 0) continue;
      if (static_cast<i64>(s.last) + s.stride ==
          static_cast<i64>(vpage)) {
        s.state = s.state == State::kNoPred ? State::kTransient
                                            : State::kSteady;
        s.last = vpage;
        if (s.state == State::kSteady) {
          SuggestAlong(out, object, vpage, s.stride, depth_, num_pages);
        }
        return out;
      }
    }

    // 2. Re-fault on a stream's current position: no new information.
    for (const Stream& s : streams) {
      if (s.valid && s.last == vpage) return out;
    }

    // 3. Nearest stream within the association window: mispredicted —
    //    re-learn its stride and demote one automaton step.
    Stream* nearest = nullptr;
    i64 best = kAssociationWindow + 1;
    for (Stream& s : streams) {
      if (!s.valid) continue;
      const i64 gap = std::llabs(static_cast<i64>(vpage) -
                                 static_cast<i64>(s.last));
      if (gap <= kAssociationWindow && gap < best) {
        best = gap;
        nearest = &s;
      }
    }
    if (nearest != nullptr) {
      const i64 observed =
          static_cast<i64>(vpage) - static_cast<i64>(nearest->last);
      switch (nearest->state) {
        case State::kSteady: nearest->state = State::kInit; break;
        case State::kInit:
          nearest->stride = observed;
          nearest->state = State::kTransient;
          break;
        case State::kTransient:
          nearest->stride = observed;
          nearest->state = State::kNoPred;
          break;
        case State::kNoPred: nearest->stride = observed; break;
      }
      nearest->last = vpage;
      return out;
    }

    // 4. A new stream: take a free slot, else the weakest, else round-
    //    robin among equals.
    Stream* slot = nullptr;
    for (Stream& s : streams) {
      if (!s.valid) {
        slot = &s;
        break;
      }
    }
    if (slot == nullptr) {
      for (Stream& s : streams) {
        if (s.state == State::kNoPred) {
          slot = &s;
          break;
        }
      }
    }
    if (slot == nullptr) {
      slot = &streams[replace_cursor_[object]++ % kStreamsPerObject];
    }
    *slot = Stream{};
    slot->valid = true;
    slot->last = vpage;
    return out;
  }

  void Reset() override {
    table_ = {};
    replace_cursor_ = {};
  }

 private:
  static constexpr usize kStreamsPerObject = 4;
  /// A fault farther than this from every stream starts a new stream
  /// rather than wrecking an established stride.
  static constexpr i64 kAssociationWindow = 8;

  enum class State : u8 { kInit, kTransient, kSteady, kNoPred };

  struct Stream {
    bool valid = false;
    State state = State::kInit;
    mem::VirtPage last = 0;
    i64 stride = 0;
  };

  u32 depth_;
  std::array<std::array<Stream, kStreamsPerObject>, hw::kMaxObjects>
      table_{};
  std::array<u32, hw::kMaxObjects> replace_cursor_{};
};

}  // namespace

std::unique_ptr<Prefetcher> MakePrefetcher(PrefetchKind kind, u32 depth) {
  switch (kind) {
    case PrefetchKind::kNone:
    case PrefetchKind::kClean: return std::make_unique<NonePrefetcher>();
    case PrefetchKind::kSequential:
      return std::make_unique<SequentialPrefetcher>(depth);
    case PrefetchKind::kAdaptive:
      return std::make_unique<AdaptivePrefetcher>(depth);
  }
  VCOP_CHECK(false);
  return nullptr;
}

}  // namespace vcop::os
