// Bookkeeping for the dual-port RAM's page frames, and the one frame
// choice.
//
// "The memory is logically organised in pages, as in typical memory
// systems. Datasets accessed by the coprocessor are mapped to these
// pages. The OS keeps track of the pages each dataset currently
// occupies." (§3.3) PageManager is that tracking: which frame holds
// which (object, virtual page), which frames are free, pinned (the
// parameter page before the coprocessor releases it) or dirty. It owns
// the replacement policy, tells it of every install, release and
// harvested touch, and decides which frames a page goes to (Choose).
// Transfers, TLB updates and the evictions a choice implies are the
// Vim's.
#pragma once

#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/tlb.h"
#include "mem/page.h"
#include "os/policy.h"

namespace vcop::os {

struct FrameState {
  bool in_use = false;
  /// Pinned frames are never chosen as eviction victims: the parameter
  /// page between EXECUTE and its release by the coprocessor.
  bool pinned = false;
  /// Dirty as accumulated from invalidated TLB entries; the live TLB
  /// entry's dirty bit is merged in by the Vim at eviction time.
  bool dirty = false;
  /// The coprocessor referenced the page since it was installed (a
  /// harvested or folded TLB accessed/dirty bit). An eviction of a
  /// referenced page is one the owner may fault back (Vim::EvictFrame).
  bool referenced = false;
  hw::ObjectId object = 0;
  /// Owning address space (vcopd multi-tenancy); 0 = kernel default.
  hw::Asid asid = 0;
  mem::VirtPage vpage = 0;
  /// Superpage support: an object page larger than the frame granule
  /// occupies `span` consecutive frames. The head frame carries the
  /// mapping; tail frames are marked `continuation` (in_use, pointing
  /// back at `head`) and are never enumerated, evicted or released on
  /// their own.
  u32 span = 1;
  bool continuation = false;
  mem::FrameId head = 0;
};

class PageManager {
 public:
  /// Starts with the wsfifo policy, the VIM's default.
  explicit PageManager(mem::PageGeometry geometry);

  /// Replaces the replacement policy (a built-in one from Vim::Configure,
  /// or a custom instance such as the Belady oracle) and resets it.
  void SetPolicy(std::unique_ptr<ReplacementPolicy> policy);

  const mem::PageGeometry& geometry() const { return geometry_; }
  u32 num_frames() const { return geometry_.num_frames(); }
  u32 frames_in_use() const { return in_use_; }
  u32 frames_free() const { return num_frames() - in_use_; }

  /// Frame currently holding (asid, object, vpage), if resident.
  std::optional<mem::FrameId> FindResident(hw::ObjectId object,
                                           mem::VirtPage vpage,
                                           hw::Asid asid) const;

  /// The one frame choice: the first of the `span` frames a page goes
  /// to. In order: the lowest free run; for one frame, the policy's
  /// victim (PickDemandVictim for a `demand` fault, PickVictim for the
  /// parameter page); for a superpage (always a demand fault), the
  /// window whose clearing evicts the fewest runs the coprocessor
  /// referenced since the previous fault (`demand->referenced`), then
  /// the fewest runs, lowest start on ties, among windows no pinned
  /// frame overlaps. The caller evicts every run in use in the window.
  /// Nothing when pinned frames leave no candidate. Allocates nothing.
  std::optional<mem::FrameId> Choose(u32 span, const DemandFault* demand);

  /// Claims frames [frame, frame+span) for (asid, object, vpage) and
  /// tells the policy. Precondition: all of them are free. `frame`
  /// becomes the head; the rest become continuation tails.
  void Install(mem::FrameId frame, hw::ObjectId object, mem::VirtPage vpage,
               bool pinned, hw::Asid asid, u32 span = 1);

  /// Releases the run headed at `frame` (must be a head, not a tail) and
  /// tells the policy. Returns the head's final state (the caller
  /// decides about write-back *before* releasing).
  FrameState Release(mem::FrameId frame);

  void MarkDirty(mem::FrameId frame);

  /// Clears the dirty flag after the page was written back in place.
  void ClearDirty(mem::FrameId frame);

  /// Records that the coprocessor referenced the frame's page.
  void MarkReferenced(mem::FrameId frame);

  /// A harvested TLB accessed bit: marks the frame's page referenced and
  /// tells the policy it was touched.
  void Touch(mem::FrameId frame);

  const FrameState& frame(mem::FrameId frame) const;

  /// Walks the head frames in use by `asid` in ascending order (vcopd's
  /// scoped sweeps and context save/restore only touch the attached
  /// tenant's frames). The walk reads each frame as it reaches it and
  /// allocates nothing, so a loop body may release the run it is
  /// visiting: that run's tails are skipped, as tails always are.
  class HeadWalk {
   public:
    HeadWalk(const std::vector<FrameState>& frames, hw::Asid asid)
        : frames_(&frames), asid_(asid) {
      Settle();
    }
    mem::FrameId operator*() const { return frame_; }
    HeadWalk& operator++() {
      ++frame_;
      Settle();
      return *this;
    }
    bool operator==(std::default_sentinel_t) const {
      return frame_ == frames_->size();
    }
    HeadWalk begin() const { return *this; }
    std::default_sentinel_t end() const { return {}; }

   private:
    /// Moves to the first head of asid_ at or after frame_.
    void Settle() {
      for (; frame_ < frames_->size(); ++frame_) {
        const FrameState& state = (*frames_)[frame_];
        if (state.in_use && !state.continuation && state.asid == asid_) {
          return;
        }
      }
    }

    const std::vector<FrameState>* frames_;
    hw::Asid asid_;
    mem::FrameId frame_ = 0;
  };
  HeadWalk HeadsOf(hw::Asid asid) const { return HeadWalk(frames_, asid); }

 private:
  FrameState& MutableFrame(mem::FrameId frame);

  mem::PageGeometry geometry_;
  std::vector<FrameState> frames_;
  u32 in_use_ = 0;
  std::unique_ptr<ReplacementPolicy> policy_;
  /// Eviction candidates (in use, not pinned, not a tail), refilled by
  /// every victim choice so that none allocates.
  std::vector<bool> evictable_;
};

}  // namespace vcop::os
