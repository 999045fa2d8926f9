#include "os/timeline.h"

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
// The head byte, then start, duration, design index and operands.
constexpr usize kMaxEventBytes = 1 + (3 + kMaxIds) * kMaxVarintBytes;
static_assert(std::size(kKinds) <= kKindMask + 1);

/// One event as recorded.
struct Fact {
  TimelineKind kind = TimelineKind::kSweep;
  Picoseconds start = 0;
  Picoseconds duration = 0;
  u64 ids[kMaxIds] = {};
  u32 id_count = 0;
  std::string_view design;
};

/// Decodes the events from the first on, in recording order.
class Reader {
 public:
  Reader(const PackedBytes& bytes, const std::vector<std::string>& designs)
      : in_(bytes), designs_(designs) {}

  Fact Next() {
    Fact fact;
    const u8 head = in_.Byte();
    fact.kind = static_cast<TimelineKind>(head & kKindMask);
    const u64 zigzag = in_.Varint();
    start_ += (zigzag >> 1) ^ (0 - (zigzag & 1));
    fact.start = start_;
    fact.duration = in_.Varint();
    fact.id_count = (head >> kIdCountShift) & 0x3;
    for (u32 i = 0; i < fact.id_count; ++i) fact.ids[i] = in_.Varint();
    if ((head & kHasDesign) != 0) fact.design = designs_[in_.Varint()];
    return fact;
  }

 private:
  PackedBytes::Reader in_;
  const std::vector<std::string>& designs_;
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
  if (!design.empty()) out = PutVarint(out, NameId(designs_, design));
  bytes_.Append(event, static_cast<usize>(out - event));
  ++size_;
}

std::vector<TimelineEvent> TimelineRecorder::events() const {
  std::vector<TimelineEvent> out;
  out.reserve(size_);
  Reader reader(bytes_, designs_);
  for (usize i = 0; i < size_; ++i) {
    const Fact fact = reader.Next();
    out.push_back(TimelineEvent{Name(fact), Info(fact).category, fact.start,
                                fact.duration, Info(fact).track});
  }
  return out;
}

std::string TimelineRecorder::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  Reader reader(bytes_, designs_);
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
