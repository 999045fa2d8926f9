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

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "base/packed_bytes.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::os {

/// What an event is. Each kind has a fixed name format, category and
/// track, held in one table in timeline.cpp; the comment lists the
/// kind's integer operands in the order its name shows them.
enum class TimelineKind : u8 {
  kConfigure,       // design
  kExecute,         // design
  kFault,           // object, page
  kClean,           // object, page
  kSweep,           // none
  kPreempt,         // pid, object
  kRingDrain,       // tenant, batch
  kVcopdConfigure,  // design
  kVcopdActivate,   // design
  kVcopdDispatch,   // pid, design
  kVcopdResume,     // pid, design
  kVcopdComplete,   // pid, design
  kVcopdFailed,     // pid, design
};

struct TimelineEvent {
  std::string name;      // e.g. "fault obj0 page3", "clean obj1 page5"
  std::string category;  // e.g. "fault", "overlap", "exec", "service"
  Picoseconds start = 0;
  Picoseconds duration = 0;
  /// Virtual lane: 0 = CPU/OS, 1 = coprocessor, 2 = background CPU,
  /// 3 = service daemon (vcopd dispatches, switches, preemptions).
  u32 track = 0;
};

/// Records each event as a typed fact: its kind, start, duration,
/// integer operands and design name, varint-packed to about 11 bytes
/// and appended to byte chunks that are never copied (PackedBytes, the
/// codec vcopd's job history shares). Names, categories
/// and tracks are produced only when the timeline is exported, so
/// recording formats no string and allocates only for a new chunk or a
/// design name it has not seen before.
class TimelineRecorder {
 public:
  /// Storage chunk sizes. The first chunk is small, so a timeline of a
  /// few events holds 512 bytes; every later chunk holds 4 KB.
  static constexpr usize kFirstChunkBytes = PackedBytes::kFirstChunkBytes;
  static constexpr usize kChunkBytes = PackedBytes::kChunkBytes;

  /// Records one event. `ids` are the kind's integer operands in the
  /// order its name shows them (at most two); `design` is its design
  /// name, for the kinds whose name has one.
  void Record(TimelineKind kind, Picoseconds start, Picoseconds duration,
              std::initializer_list<u64> ids = {},
              std::string_view design = {});

  /// Every event in recording order, named from the kind table.
  std::vector<TimelineEvent> events() const;
  usize size() const { return size_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps as the format requires).
  std::string ToChromeTrace() const;

 private:
  PackedBytes bytes_;
  usize size_ = 0;
  /// Starts are stored as deltas from the previous event's start.
  Picoseconds last_start_ = 0;
  /// Each design name seen, once; a kernel loads only a few designs.
  std::vector<std::string> designs_;
};

}  // namespace vcop::os
