// The VIM's table of mapped interface objects.
//
// FPGA_MAP_OBJECT "allocates the data used by the coprocessor. The
// arguments of the call are: (a) the object identifier (a number agreed
// by the hardware and software designers), (b) a pointer to the data,
// (c) the data size, and optionally (d) some flags used for optimisation
// purposes." (§3.1)
//
// The flags here carry the transfer-direction hint (an IN page need not
// be written back; an OUT page need not be loaded on its first fault)
// and the element width the hardware designer built the coprocessor
// around.
#pragma once

#include <array>
#include <optional>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/tlb.h"
#include "mem/user_memory.h"

namespace vcop::os {

/// Transfer-direction optimisation hint (§3.1's "flags").
enum class Direction : u8 {
  kIn,     // coprocessor reads only: load on fault, never write back
  kOut,    // coprocessor writes only: no load on fault, write back dirty
  kInOut,  // both: load on fault and write back dirty
};

std::string_view ToString(Direction d);

struct MappedObject {
  hw::ObjectId id = 0;
  mem::UserAddr user_addr = 0;
  u32 size_bytes = 0;
  u32 elem_width = 4;  // 1, 2 or 4 — the object's natural element size
  Direction direction = Direction::kInOut;
  /// Page size in bytes, fixed and checked by Kernel::MapObject: the
  /// platform frame granule or the object's override. Sizes above the
  /// granule are superpages spanning several contiguous DP-RAM frames.
  u32 page_bytes = 0;
};

/// One re-pointing of a mapped object at a new user address
/// (Kernel::RepointObjects). The object field is as wide as a ring
/// descriptor carries it, so an id past hw::kMaxObjects is refused
/// rather than truncated onto another object.
struct ObjectRef {
  u32 object = 0;
  mem::UserAddr addr = 0;
};

class ObjectTable {
 public:
  /// Registers `object`. Fails on duplicate id, a reserved id
  /// (kParamObject), zero size, or an element width that is not
  /// 1/2/4 or does not divide the size.
  Status Map(const MappedObject& object);

  /// Removes a mapping (used between EXECUTE calls when the
  /// application re-points an object).
  Status Unmap(hw::ObjectId id);

  /// Re-points an existing mapping at a new user virtual address,
  /// keeping size/width/direction. The zero-copy ring path uses this:
  /// a descriptor's object_refs carry (id, user VA) pairs, so a tenant
  /// can retarget an object per submission without a map/unmap churn.
  Status Repoint(hw::ObjectId id, mem::UserAddr addr);

  /// Clears all mappings.
  void Clear();

  const MappedObject* Find(hw::ObjectId id) const;

  /// All currently mapped objects, in id order.
  std::vector<MappedObject> All() const;

  usize size() const { return count_; }

  /// Bumped by every successful Map, Unmap, Repoint and Clear, so a
  /// holder of per-object state can tell that the table moved under it.
  u64 version() const { return version_; }

 private:
  std::array<std::optional<MappedObject>, hw::kMaxObjects> slots_{};
  usize count_ = 0;
  u64 version_ = 0;
};

}  // namespace vcop::os
