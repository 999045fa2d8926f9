#include "os/timeline.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "base/status.h"
#include "base/table.h"

namespace vcop::os {

namespace {

/// How each kind of event is named and drawn. In a format, `%u` stands
/// for the event's next integer operand and `%s` for its design name.
struct KindInfo {
  std::string_view format;
  const char* category;
  u32 track;
};

/// The one place event names live, indexed by TimelineKind.
constexpr KindInfo kKinds[] = {
    {"configure %s", "config", 0},
    {"execute %s", "exec", 1},
    {"fault obj%u page%u", "fault", 0},
    {"clean obj%u page%u", "overlap", 2},
    {"end-of-operation sweep", "transfer", 0},
    {"preempt pid%u obj%u", "preempt", 3},
    {"ring drain tenant%u x%u", "service", 3},
    {"vcopd configure %s", "config", 3},
    {"vcopd activate %s", "config", 3},
    {"vcopd dispatch pid%u %s", "exec", 3},
    {"vcopd resume pid%u %s", "exec", 3},
    {"vcopd complete pid%u %s", "exec", 3},
    {"vcopd complete pid%u %s (failed)", "exec", 3},
};
static_assert(std::size(kKinds) ==
              static_cast<usize>(TimelineKind::kVcopdFailed) + 1);

// An event is a head byte, then varints: the start's zig-zag delta, the
// duration, the integer operands and, if flagged, the design's index.
// The head byte holds the kind, the operand count and the design flag.
constexpr u8 kKindMask = 0x0f;
constexpr u32 kIdCountShift = 4;
constexpr u8 kHasDesign = 0x40;
constexpr usize kMaxIds = 2;
constexpr usize kMaxVarintBytes = 10;
// The head byte, then start, duration, design index and operands.
constexpr usize kMaxEventBytes = 1 + (3 + kMaxIds) * kMaxVarintBytes;
static_assert(std::size(kKinds) <= kKindMask + 1);

u8* PutVarint(u8* out, u64 value) {
  while (value >= 0x80) {
    *out++ = static_cast<u8>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<u8>(value);
  return out;
}

/// One event as recorded.
struct Fact {
  TimelineKind kind = TimelineKind::kSweep;
  Picoseconds start = 0;
  Picoseconds duration = 0;
  u64 ids[kMaxIds] = {};
  u32 id_count = 0;
  std::string_view design;
};

/// Decodes the events from the first chunk on, in recording order.
class Reader {
 public:
  Reader(const std::vector<std::unique_ptr<u8[]>>& chunks,
         const std::vector<std::string>& designs)
      : chunks_(chunks), designs_(designs) {}

  Fact Next() {
    Fact fact;
    const u8 head = Byte();
    fact.kind = static_cast<TimelineKind>(head & kKindMask);
    const u64 zigzag = Varint();
    start_ += (zigzag >> 1) ^ (0 - (zigzag & 1));
    fact.start = start_;
    fact.duration = Varint();
    fact.id_count = (head >> kIdCountShift) & 0x3;
    for (u32 i = 0; i < fact.id_count; ++i) fact.ids[i] = Varint();
    if ((head & kHasDesign) != 0) fact.design = designs_[Varint()];
    return fact;
  }

 private:
  u8 Byte() {
    if (offset_ == TimelineRecorder::ChunkBytes(chunk_)) {
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

  const std::vector<std::unique_ptr<u8[]>>& chunks_;
  const std::vector<std::string>& designs_;
  usize chunk_ = 0;
  usize offset_ = 0;
  Picoseconds start_ = 0;
};

const KindInfo& Info(const Fact& fact) {
  return kKinds[static_cast<usize>(fact.kind)];
}

/// The name the kind's format gives `fact`.
std::string Name(const Fact& fact) {
  const std::string_view format = Info(fact).format;
  std::string name;
  u32 next_id = 0;
  for (usize i = 0; i < format.size(); ++i) {
    if (format[i] != '%') {
      name += format[i];
    } else if (format[++i] == 's') {
      name += fact.design;
    } else {
      VCOP_CHECK(next_id < fact.id_count);  // recorded too few operands
      name += std::to_string(fact.ids[next_id++]);
    }
  }
  VCOP_CHECK(next_id == fact.id_count);  // recorded too many operands
  return name;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void TimelineRecorder::Record(TimelineKind kind, Picoseconds start,
                              Picoseconds duration,
                              std::initializer_list<u64> ids,
                              std::string_view design) {
  VCOP_CHECK(ids.size() <= kMaxIds);
  u8 event[kMaxEventBytes];
  u8* out = event;
  *out++ = static_cast<u8>(static_cast<u8>(kind) |
                           (ids.size() << kIdCountShift) |
                           (design.empty() ? 0 : kHasDesign));
  // Starts are not recorded in order (an execute span is recorded when
  // the run ends, a clean unit when it is queued), so the delta may be
  // negative: zig-zag code it, in modular arithmetic so that every u64
  // start comes back exactly.
  const u64 delta = start - last_start_;
  out = PutVarint(out, (delta << 1) ^ (0 - (delta >> 63)));
  last_start_ = start;
  out = PutVarint(out, duration);
  for (const u64 id : ids) out = PutVarint(out, id);
  if (!design.empty()) out = PutVarint(out, DesignId(design));
  Append(event, static_cast<usize>(out - event));
  ++size_;
}

u32 TimelineRecorder::DesignId(std::string_view design) {
  const auto it = std::find(designs_.begin(), designs_.end(), design);
  if (it != designs_.end()) {
    return static_cast<u32>(it - designs_.begin());
  }
  designs_.emplace_back(design);
  return static_cast<u32>(designs_.size() - 1);
}

void TimelineRecorder::Append(const u8* bytes, usize count) {
  // An event may straddle two chunks, so no chunk has a wasted tail.
  while (count > 0) {
    if (chunks_.empty() || tail_ == ChunkBytes(chunks_.size() - 1)) {
      chunks_.push_back(std::make_unique<u8[]>(ChunkBytes(chunks_.size())));
      tail_ = 0;
    }
    const usize take = std::min(count, ChunkBytes(chunks_.size() - 1) - tail_);
    std::memcpy(chunks_.back().get() + tail_, bytes, take);
    tail_ += take;
    bytes += take;
    count -= take;
  }
}

std::vector<TimelineEvent> TimelineRecorder::events() const {
  std::vector<TimelineEvent> out;
  out.reserve(size_);
  Reader reader(chunks_, designs_);
  for (usize i = 0; i < size_; ++i) {
    const Fact fact = reader.Next();
    out.push_back(TimelineEvent{Name(fact), Info(fact).category, fact.start,
                                fact.duration, Info(fact).track});
  }
  return out;
}

std::string TimelineRecorder::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  Reader reader(chunks_, designs_);
  for (usize i = 0; i < size_; ++i) {
    const Fact fact = reader.Next();
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
        JsonEscape(Name(fact)).c_str(), Info(fact).category,
        ToMicroseconds(fact.start), ToMicroseconds(fact.duration),
        Info(fact).track);
  }
  out += "]}";
  return out;
}

}  // namespace vcop::os
