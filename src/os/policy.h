// Page replacement policies for the interface memory.
//
// "When no page is available for allocation, several replacement
// policies are possible (e.g., first-in first-out, least recently used,
// random)." (§3.3) All three are implemented, driven by the information
// a real VIM would have: installation order, the TLB's accessed bits
// (harvested at every fault), and nothing else. The default, wsfifo,
// is FIFO with a working-set guard on demand faults that leave their
// object's sequential run, and LRU on re-faults of pages evicted after
// use (DESIGN.md S6).
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"
#include "hw/tlb.h"
#include "mem/page.h"

namespace vcop::os {

enum class PolicyKind : u8 { kFifo, kLru, kRandom, kWsFifo };

std::string_view ToString(PolicyKind kind);

/// The demand fault a victim is chosen for, and what the VIM knows about
/// every frame at that moment. The mask is borrowed for the duration of
/// one PickDemandVictim call.
struct DemandFault {
  hw::ObjectId object = 0;
  mem::VirtPage vpage = 0;
  /// Page of the object's previous demand fault in this execution of its
  /// address space; empty on the object's first.
  std::optional<mem::VirtPage> previous;
  /// Per frame: referenced since the previous fault (the TLB accessed
  /// bits harvested at this one).
  const std::vector<bool>& referenced;
  /// The faulting page was evicted after the coprocessor had referenced
  /// it, since its address space last came onto the fabric.
  bool refault = false;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Forgets all history; called at each FPGA_EXECUTE.
  virtual void Reset(u32 num_frames) = 0;

  /// Page (object, vpage) was installed into `frame`. Only policies
  /// that reason about *which* page sits in a frame (the Belady oracle)
  /// read the page.
  virtual void OnInstalled(mem::FrameId frame, hw::ObjectId object,
                           mem::VirtPage vpage) = 0;

  /// The coprocessor was observed touching `frame` since the last
  /// harvest (from the TLB accessed bits).
  virtual void OnTouched(mem::FrameId frame) = 0;

  /// `frame` was freed (its page evicted or released).
  virtual void OnFreed(mem::FrameId frame) = 0;

  /// Chooses a victim among frames with `evictable[frame]` true.
  /// Precondition: at least one frame is evictable.
  virtual mem::FrameId PickVictim(const std::vector<bool>& evictable) = 0;

  /// Same, for a demand fault (parameter-page victims use PickVictim).
  /// Only policies that weigh the fault override it.
  virtual mem::FrameId PickDemandVictim(const std::vector<bool>& evictable,
                                        const DemandFault& fault) {
    (void)fault;
    return PickVictim(evictable);
  }
};

/// Factory. `seed` is used by the random policy only.
std::unique_ptr<ReplacementPolicy> MakePolicy(PolicyKind kind, u64 seed);

}  // namespace vcop::os
