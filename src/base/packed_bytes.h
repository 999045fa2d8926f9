// The one codec for records kept by the million: u64s as varints, in
// byte chunks that are never copied. The kernel's timeline
// (os/timeline.h) and vcopd's job history (os/vcopd.h) both pack their
// records this way. A writer packs a record into a stack buffer with
// PutVarint and appends it; a Reader decodes from any record's offset.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"

namespace vcop {

/// The most bytes a u64 takes as a varint.
inline constexpr usize kMaxVarintBytes = 10;

/// Writes `value` at `out` as a little-endian base-128 varint (seven
/// bits a byte, the high bit set on all but the last); returns the byte
/// after it.
inline u8* PutVarint(u8* out, u64 value) {
  while (value >= 0x80) {
    *out++ = static_cast<u8>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<u8>(value);
  return out;
}

/// Append-only bytes in chunks: a small first chunk, so a store of a few
/// records holds 512 bytes, and 4 KB chunks after it. A chunk is never
/// copied or moved, so the store grows without spare capacity or a copy
/// per doubling, and a record may straddle two chunks, so no chunk has
/// a wasted tail.
class PackedBytes {
 public:
  static constexpr usize kFirstChunkBytes = 512;
  static constexpr usize kChunkBytes = 4096;
  static constexpr usize ChunkBytes(usize index) {
    return index == 0 ? kFirstChunkBytes : kChunkBytes;
  }

  /// Appends `count` bytes; allocates only to open a chunk.
  void Append(const u8* bytes, usize count) {
    while (count > 0) {
      if (chunks_.empty() || tail_ == ChunkBytes(chunks_.size() - 1)) {
        chunks_.push_back(std::make_unique<u8[]>(ChunkBytes(chunks_.size())));
        tail_ = 0;
      }
      const usize take =
          std::min(count, ChunkBytes(chunks_.size() - 1) - tail_);
      std::memcpy(chunks_.back().get() + tail_, bytes, take);
      tail_ += take;
      bytes += take;
      count -= take;
    }
  }

  /// Bytes appended so far: the offset of the next record.
  u64 size() const {
    if (chunks_.empty()) return 0;
    return chunks_.size() == 1
               ? tail_
               : kFirstChunkBytes + (chunks_.size() - 2) * kChunkBytes + tail_;
  }

  /// Reads bytes and varints in order from an offset on.
  class Reader {
   public:
    explicit Reader(const PackedBytes& bytes, u64 offset = 0)
        : chunks_(bytes.chunks_) {
      if (offset >= kFirstChunkBytes) {
        chunk_ = 1 + (offset - kFirstChunkBytes) / kChunkBytes;
        offset_ = (offset - kFirstChunkBytes) % kChunkBytes;
      } else {
        offset_ = offset;
      }
    }

    u8 Byte() {
      if (offset_ == ChunkBytes(chunk_)) {
        ++chunk_;
        offset_ = 0;
      }
      return chunks_[chunk_][offset_++];
    }

    u64 Varint() {
      u64 value = 0;
      for (u32 shift = 0;; shift += 7) {
        const u8 byte = Byte();
        value |= static_cast<u64>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) return value;
      }
    }

   private:
    const std::vector<std::unique_ptr<u8[]>>& chunks_;
    usize chunk_ = 0;
    usize offset_ = 0;
  };

 private:
  std::vector<std::unique_ptr<u8[]>> chunks_;
  usize tail_ = 0;  // bytes used in chunks_.back()
};

/// The index of `name` in `names`, appending it on first sight: a store
/// keeps each of its few distinct names (a kernel's designs) once, and
/// a record holds the index.
inline u32 NameId(std::vector<std::string>& names, std::string_view name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end()) return static_cast<u32>(it - names.begin());
  names.emplace_back(name);
  return static_cast<u32>(names.size() - 1);
}

}  // namespace vcop
