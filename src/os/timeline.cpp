#include "os/timeline.h"

#include "base/table.h"

namespace vcop::os {

namespace {
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

u32 TimelineRecorder::Intern(std::string s) {
  const auto [it, added] =
      ids_.try_emplace(std::move(s), static_cast<u32>(strings_.size()));
  if (added) strings_.push_back(&it->first);
  return it->second;
}

std::vector<TimelineEvent> TimelineRecorder::events() const {
  std::vector<TimelineEvent> out;
  out.reserve(records_.size());
  for (const EventRecord& r : records_) {
    out.push_back(TimelineEvent{*strings_[r.name], *strings_[r.category],
                                r.start, r.duration, r.track});
  }
  return out;
}

void TimelineRecorder::Clear() {
  records_.clear();
  strings_.clear();
  ids_.clear();
}

std::string TimelineRecorder::ToChromeTrace() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const EventRecord& r : records_) {
    if (!first) out += ',';
    first = false;
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
        JsonEscape(*strings_[r.name]).c_str(),
        JsonEscape(*strings_[r.category]).c_str(), ToMicroseconds(r.start),
        ToMicroseconds(r.duration), r.track);
  }
  out += "]}";
  return out;
}

}  // namespace vcop::os
