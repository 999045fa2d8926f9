#include "mem/user_memory.h"

#include <algorithm>
#include <cstring>

#include "base/bitops.h"
#include "base/table.h"

namespace vcop::mem {

UserMemory::UserMemory(u32 capacity_bytes) : capacity_(capacity_bytes) {
  VCOP_CHECK_MSG(capacity_bytes >= 64, "user memory unrealistically small");
}

Result<UserAddr> UserMemory::Allocate(u32 size) {
  if (size == 0) return InvalidArgumentError("cannot allocate 0 bytes");
  const u32 base = static_cast<u32>(AlignUp(next_, 16));
  if (static_cast<u64>(base) + size > capacity_) {
    return ResourceExhaustedError(
        StrFormat("user memory exhausted: %u bytes requested, %zu free", size,
                  static_cast<usize>(capacity_ - base)));
  }
  // calloc, not new[]: a large block comes straight from a lazily zeroed
  // mapping, which nothing has to wipe.
  std::unique_ptr<u8, FreeBlock> block(static_cast<u8*>(std::calloc(size, 1)));
  if (block == nullptr) {
    return ResourceExhaustedError(
        StrFormat("host allocation of %u bytes failed", size));
  }
  next_ = base + size;
  regions_.push_back(Region{base, size, std::move(block)});
  return base;
}

const UserMemory::Region* UserMemory::Find(UserAddr addr, u32 len) const {
  // Only the last region starting at or below `addr` can hold it.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](UserAddr a, const Region& r) { return a < r.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  if (static_cast<u64>(addr) + len > static_cast<u64>(it->base) + it->size) {
    return nullptr;
  }
  return &*it;
}

u8* UserMemory::Bytes(UserAddr addr, u32 len) const {
  const Region* region = Find(addr, len);
  VCOP_CHECK_MSG(region != nullptr,
                 StrFormat("user memory access [%u,+%u) not allocated", addr,
                           len));
  return region->block.get() + (addr - region->base);
}

void UserMemory::WriteBytes(UserAddr addr, std::span<const u8> data) {
  auto dst = View(addr, static_cast<u32>(data.size()));
  std::memcpy(dst.data(), data.data(), data.size());
}

void UserMemory::ReadBytes(UserAddr addr, std::span<u8> data) const {
  auto src = View(addr, static_cast<u32>(data.size()));
  std::memcpy(data.data(), src.data(), data.size());
}

void UserMemory::Pin(UserAddr addr, u32 len) {
  if (len == 0) return;
  const u32 first = addr >> kUserPageShift;
  const u32 last = static_cast<u32>((static_cast<u64>(addr) + len - 1) >>
                                    kUserPageShift);
  for (u32 page = first; page <= last; ++page) ++pins_[page];
}

void UserMemory::Unpin(UserAddr addr, u32 len) {
  if (len == 0) return;
  const u32 first = addr >> kUserPageShift;
  const u32 last = static_cast<u32>((static_cast<u64>(addr) + len - 1) >>
                                    kUserPageShift);
  for (u32 page = first; page <= last; ++page) {
    auto it = pins_.find(page);
    VCOP_CHECK_MSG(it != pins_.end() && it->second > 0,
                   StrFormat("unpin of unpinned user page %u", page));
    if (--it->second == 0) pins_.erase(it);
  }
}

u32 UserMemory::PinCount(UserAddr addr) const {
  auto it = pins_.find(addr >> kUserPageShift);
  return it == pins_.end() ? 0 : it->second;
}

bool UserMemory::AnyPinned(UserAddr addr, u32 len) const {
  if (len == 0) return false;
  const u32 first = addr >> kUserPageShift;
  const u32 last = static_cast<u32>((static_cast<u64>(addr) + len - 1) >>
                                    kUserPageShift);
  for (u32 page = first; page <= last; ++page) {
    if (pins_.count(page) != 0) return true;
  }
  return false;
}

Status UserMemory::Reclaim(UserAddr base) {
  auto it = std::lower_bound(
      regions_.begin(), regions_.end(), base,
      [](const Region& r, UserAddr b) { return r.base < b; });
  if (it == regions_.end() || it->base != base) {
    return NotFoundError(StrFormat("no region allocated at %u", base));
  }
  if (AnyPinned(it->base, it->size)) {
    return FailedPreconditionError(StrFormat(
        "region [%u,+%u) has DMA-pinned pages; unpin before reclaim",
        it->base, it->size));
  }
  regions_.erase(it);
  return Status::Ok();
}

}  // namespace vcop::mem
