// Bookkeeping for the dual-port RAM's page frames.
//
// "The memory is logically organised in pages, as in typical memory
// systems. Datasets accessed by the coprocessor are mapped to these
// pages. The OS keeps track of the pages each dataset currently
// occupies." (§3.3) PageManager is that tracking: which frame holds
// which (object, virtual page), which frames are free, pinned (the
// parameter page before the coprocessor releases it) or dirty. It is
// pure bookkeeping — transfers and TLB updates are orchestrated by the
// Vim, which owns the policy decisions too.
#pragma once

#include <optional>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/tlb.h"
#include "mem/page.h"

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
  explicit PageManager(mem::PageGeometry geometry);

  /// Frees everything (start of an EXECUTE).
  void Reset();

  const mem::PageGeometry& geometry() const { return geometry_; }
  u32 num_frames() const { return geometry_.num_frames(); }
  u32 frames_in_use() const { return in_use_; }
  u32 frames_free() const { return num_frames() - in_use_; }

  /// Frame currently holding (asid, object, vpage), if resident.
  std::optional<mem::FrameId> FindResident(hw::ObjectId object,
                                           mem::VirtPage vpage,
                                           hw::Asid asid) const;

  /// Any free frame (lowest index first).
  std::optional<mem::FrameId> FindFree() const;

  /// Lowest `span` consecutive free frames (superpage allocation), if
  /// any such window exists.
  std::optional<mem::FrameId> FindFreeRun(u32 span) const;

  /// Claims frames [frame, frame+span) for (asid, object, vpage).
  /// Precondition: all of them are free. `frame` becomes the head; the
  /// rest become continuation tails.
  void Install(mem::FrameId frame, hw::ObjectId object, mem::VirtPage vpage,
               bool pinned, hw::Asid asid, u32 span = 1);

  /// Releases the run headed at `frame` (must be a head, not a tail).
  /// Returns the head's final state (the caller decides about write-back
  /// *before* releasing; this is for bookkeeping symmetry).
  FrameState Release(mem::FrameId frame);

  void MarkDirty(mem::FrameId frame);

  /// Clears the dirty flag after the page was written back in place
  /// (background cleaning).
  void ClearDirty(mem::FrameId frame);

  /// Records that the coprocessor referenced the frame's page.
  void MarkReferenced(mem::FrameId frame);

  const FrameState& frame(mem::FrameId frame) const;

  /// Eviction candidates: in use and not pinned.
  std::vector<bool> EvictableMask() const;

  /// All in-use frames (for end-of-operation write-back sweeps).
  std::vector<mem::FrameId> InUseFrames() const;

  /// In-use frames owned by `asid` (vcopd's scoped sweeps and context
  /// save/restore only touch the attached tenant's frames).
  std::vector<mem::FrameId> InUseFramesOf(hw::Asid asid) const;

 private:
  FrameState& MutableFrame(mem::FrameId frame);

  mem::PageGeometry geometry_;
  std::vector<FrameState> frames_;
  u32 in_use_ = 0;
};

}  // namespace vcop::os
