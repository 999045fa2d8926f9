#include "apps/sw_model.h"

#include "base/status.h"

namespace vcop::apps {

Picoseconds ArmTimingModel::AdpcmDecodeTime(usize input_bytes) const {
  const u64 samples = static_cast<u64>(input_bytes) * 2;
  return cpu_clock.Duration(samples * cycles_per_adpcm_sample +
                            call_overhead_cycles);
}

Picoseconds ArmTimingModel::IdeaEcbTime(usize bytes) const {
  const u64 blocks = static_cast<u64>(bytes) / kIdeaBlockBytes;
  return cpu_clock.Duration(blocks * cycles_per_idea_block +
                            call_overhead_cycles);
}

SwRunResult RunSoftwareAdpcmDecode(const ArmTimingModel& model,
                                   std::span<const u8> in,
                                   std::span<i16> out) {
  AdpcmState state;
  AdpcmDecode(in, out, state);
  return SwRunResult{model.AdpcmDecodeTime(in.size())};
}

}  // namespace vcop::apps
