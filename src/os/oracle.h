// Belady's optimal replacement, as an offline oracle.
//
// §3.3 names FIFO/LRU/random as candidate policies; the interesting
// question for the ablation is how much headroom any online policy
// leaves. Belady's MIN answers it but needs the future: we obtain it by
// running the workload twice. Pass 1 records the coprocessor's page
// reference string through the IMU's access probe (the stream is a
// function of the program, not of the paging decisions, so it is
// identical across passes). Pass 2 replays with OraclePolicy, which
// evicts the page whose next use lies farthest in the future.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/tlb.h"
#include "mem/page.h"
#include "os/policy.h"

namespace vcop::os {

/// One page reference: which (object, virtual page) an access touched.
struct PageRef {
  hw::ObjectId object;
  mem::VirtPage vpage;
};

/// The recorded reference string of one execution.
using PageRefTrace = std::vector<PageRef>;

/// Belady's MIN over a recorded trace. Advance the cursor by feeding it
/// every access via OnReference (wire the IMU's access probe to both
/// the recorder in pass 1 and this method in pass 2).
class OraclePolicy final : public ReplacementPolicy {
 public:
  explicit OraclePolicy(std::shared_ptr<const PageRefTrace> trace);

  /// Called once per coprocessor access, in program order.
  void OnReference(hw::ObjectId object, mem::VirtPage vpage);

  // ReplacementPolicy:
  std::string_view name() const override { return "belady"; }
  void Reset(u32 num_frames) override;
  void OnInstalled(mem::FrameId frame, hw::ObjectId object,
                   mem::VirtPage vpage) override;
  void OnTouched(mem::FrameId frame) override { (void)frame; }
  void OnFreed(mem::FrameId frame) override;
  mem::FrameId PickVictim(const std::vector<bool>& evictable) override;

 private:
  using PageKey = std::pair<hw::ObjectId, mem::VirtPage>;

  /// Position of the first use of `page` at or after the cursor;
  /// ~0 when the page is never referenced again.
  u64 NextUse(const PageKey& page) const;

  std::shared_ptr<const PageRefTrace> trace_;
  std::map<PageKey, std::vector<u64>> positions_;
  std::vector<std::pair<bool, PageKey>> frame_page_;
  u64 cursor_ = 0;
};

}  // namespace vcop::os
