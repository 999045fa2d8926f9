// Execution timelines: what the OS and the coprocessor were doing,
// when — exportable to the Chrome trace-event format (load the JSON in
// chrome://tracing or Perfetto).
//
// The ExecutionReport aggregates the paper's three time buckets; the
// timeline keeps the individual events (each fault service with its
// cause, every overlapped transfer unit, configuration and execution
// spans), which is what you actually stare at when a run is slower than
// expected.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::os {

struct TimelineEvent {
  std::string name;      // e.g. "fault obj0 page3", "clean frame 5"
  std::string category;  // "fault" | "transfer" | "overlap" | "exec" | "config"
  Picoseconds start = 0;
  Picoseconds duration = 0;
  /// Virtual lane: 0 = CPU/OS, 1 = coprocessor, 2 = background CPU,
  /// 3 = service daemon (vcopd dispatches, switches, preemptions).
  u32 track = 0;
};

/// Stores each distinct name and category once and each event as a
/// fixed 32-byte record, so a long-running service's timeline grows by
/// 32 bytes per event however long its names are.
class TimelineRecorder {
 public:
  void Record(std::string name, std::string category, Picoseconds start,
              Picoseconds duration, u32 track) {
    records_.push_back(EventRecord{start, duration, track,
                                   Intern(std::move(name)),
                                   Intern(std::move(category))});
  }

  /// Every event in recording order, rebuilt from the records.
  std::vector<TimelineEvent> events() const;
  usize size() const { return records_.size(); }
  void Clear();

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps as the format requires).
  std::string ToChromeTrace() const;

 private:
  struct EventRecord {
    Picoseconds start = 0;
    Picoseconds duration = 0;
    u32 track = 0;
    u32 name = 0;      // index into strings_
    u32 category = 0;  // index into strings_
  };
  static_assert(sizeof(EventRecord) == 32);

  /// The id of `s`, adding it on first sight.
  u32 Intern(std::string s);

  // Each string is stored once, as a key of ids_; strings_ points at the
  // keys by id (a rehash moves no element of an unordered_map).
  std::unordered_map<std::string, u32> ids_;
  std::vector<const std::string*> strings_;
  std::vector<EventRecord> records_;
};

}  // namespace vcop::os
