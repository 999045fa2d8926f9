// ARM software-execution timing model for the pure-software baselines.
//
// We do not have the paper's 133 MHz ARM922T; software execution *time*
// is therefore modelled as (calibrated cycles per work unit) x (units),
// while the computation itself runs bit-exactly on the host. The two
// calibration constants are derived from the paper's own reported
// numbers and each derivation is documented below; everything downstream
// (speedups, crossovers) is emergent, not fitted.
#pragma once

#include <span>

#include "apps/adpcm.h"
#include "apps/idea.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::apps {

struct ArmTimingModel {
  /// The EPXA1 ARM-stripe clock (§4: "an ARM processor running at
  /// 133 MHz").
  Frequency cpu_clock = Frequency::MHz(133);

  /// ADPCM decode cost. Derivation: Figure 8 reports ~18 ms for the
  /// pure-software decode of an 8 KB input; 8 KB = 16384 samples, so
  /// 18 ms * 133 MHz / 16384 = 146 cycles/sample. (Plausible for the
  /// table-driven decoder with uncached SDRAM on an ARM9.)
  u32 cycles_per_adpcm_sample = 146;

  /// IDEA encryption cost. Derivation: Figure 9 reports 26/53/105/211 ms
  /// for 4/8/16/32 KB; 4 KB = 512 blocks, so 26 ms * 133 MHz / 512 =
  /// 6754 cycles/block — consistent with 34 mul-mod-65537 operations
  /// per block on a core with a multi-cycle multiplier.
  u32 cycles_per_idea_block = 6754;

  /// Call/setup overhead per invocation (argument marshalling, state
  /// setup). Second-order; kept small and identical for both kernels.
  u32 call_overhead_cycles = 300;

  /// Time to decode `input_bytes` of ADPCM (2 samples per byte).
  Picoseconds AdpcmDecodeTime(usize input_bytes) const;

  /// Time to encrypt/decrypt `bytes` of IDEA ECB (8 bytes per block).
  Picoseconds IdeaEcbTime(usize bytes) const;
};

/// Result of running a software baseline: the modelled wall time (the
/// output data lands in the caller's buffer).
struct SwRunResult {
  Picoseconds time = 0;
};

/// Runs the reference ADPCM decoder and prices it with `model`.
SwRunResult RunSoftwareAdpcmDecode(const ArmTimingModel& model,
                                   std::span<const u8> in,
                                   std::span<i16> out);

}  // namespace vcop::apps
