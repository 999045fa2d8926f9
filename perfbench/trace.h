// Host-time spans recorded by the benchmark around each public layer
// call (Load, Map, Execute, Publish, Kick, RunUntilQuiescent, Reap),
// kept in memory and written out once, merged with the kernel's
// simulated-time timeline, as one Chrome trace.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/types.h"
#include "os/timeline.h"

namespace vcop::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  i32 parent = -1;  // index into the recorder's spans, -1 at top level
  u64 job = 0;
};

/// Records nested spans when enabled; a disabled recorder reads no
/// clock, so the untraced runs pay one branch per call.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, u64 job)
        : recorder_(recorder != nullptr && recorder->enabled_ ? recorder
                                                              : nullptr) {
      if (recorder_ != nullptr) index_ = recorder_->Open(name, job);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    i32 index_ = -1;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  const std::vector<Span>& spans() const { return spans_; }

 private:
  i64 Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  i32 Open(const char* name, u64 job) {
    Span span;
    span.name = name;
    span.start_ns = Now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.job = job;
    spans_.push_back(span);
    stack_.push_back(static_cast<i32>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(i32 index) {
    spans_[static_cast<usize>(index)].end_ns = Now();
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<i32> stack_;
};

/// Per span name: calls, total time and self time (total minus the part
/// covered by direct children), in nanoseconds.
struct SpanTotals {
  u64 calls = 0;
  i64 total_ns = 0;
  i64 self_ns = 0;
};

inline std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> out;
  std::vector<i64> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<usize>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (usize i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const i64 duration = spans[i].end_ns - spans[i].start_ns;
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

/// Writes host spans (pid 1, host microseconds) and the kernel timeline
/// (pid 2, simulated microseconds, one thread per track) as one Chrome
/// trace-event file. Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             const std::vector<os::TimelineEvent>& timeline) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"host (benchmark spans)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"simulated EPXA1 timeline\"}}");
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":0,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"job\":%llu}}",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<unsigned long long>(s.job));
  }
  for (const os::TimelineEvent& e : timeline) {
    std::string name;
    for (const char c : e.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += c;
    }
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.6f,\"dur\":%.6f,\"pid\":2,\"tid\":%u}",
                 name.c_str(), e.category.c_str(),
                 static_cast<double>(e.start) / 1e6,
                 static_cast<double>(e.duration) / 1e6, e.track);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vcop::perfbench
