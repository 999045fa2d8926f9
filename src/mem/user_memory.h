// Simulated user-space memory of the application process.
//
// In the paper, mapped objects (the A/B/C vectors, the ADPCM input
// stream, the IDEA plaintext/ciphertext) live in ordinary user-space
// SDRAM; the VIM copies pages between that memory and the dual-port RAM.
// UserMemory models the process's address space as allocatable regions
// in a flat 32-bit space, mirroring malloc'd buffers.
#pragma once

#include <cstdlib>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "mem/page.h"  // kUserPageShift / kUserPageBytes

namespace vcop::mem {

/// A user-space virtual address in the simulated process.
using UserAddr = u32;

class UserMemory {
 public:
  /// `capacity_bytes` bounds the total allocatable space (EPXA1 board:
  /// 64 MB SDRAM).
  explicit UserMemory(u32 capacity_bytes);
  UserMemory(const UserMemory&) = delete;
  UserMemory& operator=(const UserMemory&) = delete;

  /// Allocates `size` bytes (16-byte aligned), zero-initialised.
  /// Fails with RESOURCE_EXHAUSTED when the space is exhausted.
  Result<UserAddr> Allocate(u32 size);

  /// Whether [addr, addr+len) lies inside an allocated region.
  bool Contains(UserAddr addr, u32 len) const {
    return Find(addr, len) != nullptr;
  }

  /// Raw access used by the software baselines and the VIM's copies.
  /// The range must lie inside one allocated region. The view stays
  /// valid until that region is reclaimed.
  std::span<u8> View(UserAddr addr, u32 len) { return {Bytes(addr, len), len}; }
  std::span<const u8> View(UserAddr addr, u32 len) const {
    return {Bytes(addr, len), len};
  }

  /// Convenience typed stores/loads (little-endian).
  void WriteBytes(UserAddr addr, std::span<const u8> data);
  void ReadBytes(UserAddr addr, std::span<u8> data) const;

  u32 capacity() const { return capacity_; }
  u32 allocated() const { return next_; }

  /// DMA page pinning. A DMA master holding a physical reference to a
  /// user page pins it; the OS must not reclaim (unmap) a pinned page —
  /// the device would scribble over whatever replaced it. Pins are
  /// per-4KB-page refcounts, so overlapping in-flight DMAs stack.
  void Pin(UserAddr addr, u32 len);
  void Unpin(UserAddr addr, u32 len);
  /// Refcount of the page containing `addr` (0 = unpinned).
  u32 PinCount(UserAddr addr) const;
  /// Whether any page of [addr, addr+len) is pinned.
  bool AnyPinned(UserAddr addr, u32 len) const;
  /// Total pages currently holding a nonzero pin count.
  usize pinned_pages() const { return pins_.size(); }

  /// Unmaps the region allocated at exactly `base` and frees its bytes.
  /// Refuses with FAILED_PRECONDITION while any of its pages is pinned
  /// by a DMA — the reclaim-vs-pin contract tests/iommu_test.cpp
  /// exercises.
  Status Reclaim(UserAddr base);

 private:
  struct FreeBlock {
    void operator()(u8* block) const { std::free(block); }
  };
  // Each region owns one calloc'd host block of its size, the way the
  // process's malloc'd buffers sit in SDRAM. A block reused from an
  // earlier system is already resident, so staging takes no host page
  // fault, and only the region's own size is cleared.
  struct Region {
    UserAddr base;
    u32 size;
    std::unique_ptr<u8, FreeBlock> block;
  };

  /// The region holding all of [addr, addr+len), or nullptr.
  const Region* Find(UserAddr addr, u32 len) const;
  /// Host address of `addr`; aborts unless the range is allocated.
  u8* Bytes(UserAddr addr, u32 len) const;

  u32 capacity_ = 0;
  u32 next_ = 16;  // address 0 stays unmapped, as a null-pointer guard
  // Sorted by base and disjoint: Allocate appends at the bump pointer
  // and Reclaim erases in place, so lookups binary-search it.
  std::vector<Region> regions_;
  // page number -> pin refcount; entries erased at zero so
  // pinned_pages() is exact.
  std::unordered_map<u32, u32> pins_;
};

}  // namespace vcop::mem
