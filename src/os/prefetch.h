// Prefetch strategies for the interface memory.
//
// "Also, speculative actions as prefetching could be used in order to
// avoid translation misses." (§3.3) The paper leaves this as future
// work; we implement it as a pluggable strategy consulted during fault
// service, and evaluate it in bench/abl_prefetch and bench_prefetch.
//
// The `prefetch` setting says what the VIM does on the CPU while the
// coprocessor computes (§3.3: "allowing overlapping of processor and
// coprocessor execution"). Every value but kNone runs background
// cleaning; the last two also queue speculative page loads:
//
//   kNone        — demand paging only; nothing runs in the background.
//   kClean       — background cleaning of cold dirty pages only.
//   kSequential  — after a fault on page p, suggest p+1..p+depth
//                  (streaming apps: adpcm, IDEA).
//   kAdaptive    — per-object reference-prediction table in the
//                  Chen/Baer style: a handful of stream slots per
//                  object, each with its own stride and a two-bit
//                  state machine, so interleaved streams (conv2d's
//                  three live image rows) are tracked independently.
//                  Classifies sequential / strided / irregular and
//                  degrades to a no-op on low confidence.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "hw/tlb.h"
#include "mem/page.h"

namespace vcop::os {

enum class PrefetchKind : u8 { kNone, kSequential, kAdaptive, kClean };

std::string_view ToString(PrefetchKind kind);

/// A page the prefetcher wants resident in addition to the faulting one.
struct PrefetchSuggestion {
  hw::ObjectId object;
  mem::VirtPage vpage;
};

class Prefetcher {
 public:
  virtual ~Prefetcher() = default;
  virtual std::string_view name() const = 0;

  /// Consulted while servicing a fault on (object, vpage). `num_pages`
  /// is the page count of the faulting object. Suggestions are
  /// *advisory*: the VIM enforces the contract centrally (same object,
  /// in-range, not the faulting page) and drops violations, so a buggy
  /// strategy cannot crash a run.
  virtual std::vector<PrefetchSuggestion> Suggest(hw::ObjectId object,
                                                  mem::VirtPage vpage,
                                                  u32 num_pages) = 0;

  /// Clears learned history (stream slots). Called by the VIM at the
  /// start of every execution (PrepareExecution) so one run's access
  /// pattern cannot pollute the next run's predictions.
  virtual void Reset() {}
};

/// Factory. `depth` is the look-ahead (pages suggested per fault and
/// stream) of the sequential and adaptive prefetchers.
std::unique_ptr<Prefetcher> MakePrefetcher(PrefetchKind kind, u32 depth = 1);

}  // namespace vcop::os
