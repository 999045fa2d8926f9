// FPGA fabric (PLD) model: configuration bit-streams and the
// reconfigurable resource itself.
//
// FPGA_LOAD "loads a coprocessor definition in the reconfigurable
// hardware and ensures the exclusive use of the resource. The argument
// of the call is a pointer to the configuration bit-stream." (§3.1)
// The fabric prices and validates configurations and keeps the
// configuration cache; the kernel holds the exclusive design and
// instantiates every core (os::Kernel).
// Here a Bitstream bundles what a real bit-stream determines implicitly:
// the synthesised core (as a C++ cycle-level model factory), its
// resource usage, and the clock frequencies the design closed timing at
// (the paper runs adpcmdecode at 40 MHz and IDEA at 6 MHz with a 24 MHz
// memory subsystem).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/fault.h"
#include "base/status.h"
#include "base/types.h"
#include "base/units.h"
#include "hw/coprocessor.h"

namespace vcop::hw {

struct Bitstream {
  std::string name;
  /// Configuration stream size; determines load time.
  u32 size_bytes = 0;
  /// PLD logic elements the design occupies.
  u32 logic_elements = 0;
  /// Clock the coprocessor core runs at.
  Frequency cp_clock;
  /// Clock the IMU / memory subsystem runs at (may differ: IDEA's core
  /// runs at 6 MHz while its memory subsystem runs at 24 MHz, §4.1).
  Frequency imu_clock;
  /// Instantiates the synthesised core.
  std::function<std::unique_ptr<Coprocessor>()> create;
};

/// Configuration-cache counters (multi-slot partial reconfiguration).
struct ConfigSlotStats {
  u64 hits = 0;        // design already resident in some slot
  u64 misses = 0;      // full configuration-port transfer paid
  u64 evictions = 0;   // a resident design was displaced (LRU)
  Picoseconds activation_time = 0;  // total slot-activation time
  Picoseconds configure_time = 0;   // total full-configuration time
};

/// Outcome of a configuration-cache probe (AcquireDesign).
struct SlotAcquire {
  Picoseconds time = 0;      // what the probe cost on the config port
  bool reconfigured = false; // miss: a full configuration was paid
  bool activated = false;    // hit on a non-active slot was switched in
};

class FpgaFabric {
 public:
  /// `capacity_les`: PLD size in logic elements.
  /// `config_bytes_per_second`: configuration-port throughput.
  FpgaFabric(u32 capacity_les, u64 config_bytes_per_second);

  /// Bytes a slot activation moves over the configuration port: with a
  /// design already resident in a partial-reconfiguration region, only
  /// the region-select frame and interface mux state are rewritten, not
  /// the bit-stream. Priced like any other configuration-port transfer.
  static constexpr u32 kSlotActivationBytes = 256;

  /// Validates `bitstream` against the PLD (fit, core factory, clocks)
  /// and prices its full configuration-port transfer. The fabric holds
  /// no cores: the kernel instantiates every design itself
  /// (os::Kernel::Instantiate). A miss in AcquireDesign pays this price;
  /// vcopd's admission control uses it to validate without configuring.
  Result<Picoseconds> PriceConfigure(const Bitstream& bitstream) const;

  u32 capacity_les() const { return capacity_les_; }

  /// Installs (or clears) the fault plan consulted on the configuration
  /// port (kConfigError). Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // ----- multi-slot configuration cache (partial reconfiguration) -----
  //
  // The PLD is split into `n` partial-reconfiguration regions, each able
  // to hold one configured design. AcquireDesign, the one route onto the
  // configuration port (FPGA_LOAD's and vcopd's), is a cache probe:
  //   * hit on the active slot — free (the design is already wired up);
  //   * hit on a dormant slot — a slot activation, priced as a
  //     kSlotActivationBytes configuration-port transfer;
  //   * miss — a full configuration into the LRU slot (evicting its
  //     resident design when occupied).
  // With one slot (the default) this degenerates to exactly the classic
  // switch-every-alternation model vcopd has always used.

  /// Resizes the configuration cache to `n` >= 1 slots, dropping any
  /// resident designs. Called once at platform construction.
  void SetConfigSlots(u32 n);
  u32 config_slots() const { return static_cast<u32>(slots_.size()); }

  /// Probes the cache for `bitstream` and makes it the active design,
  /// paying activation (hit) or full configuration (miss) as needed.
  /// Both paths consult the kConfigError fault site; a CRC fault fails
  /// the acquire cleanly (an activation fault additionally evicts the
  /// damaged slot — its configuration can no longer be trusted).
  Result<SlotAcquire> AcquireDesign(const Bitstream& bitstream);

  /// Whether `name` is configured in some slot (active or dormant).
  bool DesignResident(const std::string& name) const;

  /// Name of the active slot's design ("" when none yet).
  const std::string& active_design() const { return active_design_; }

  const ConfigSlotStats& slot_stats() const { return slot_stats_; }

 private:
  /// Counts one configuration attempt against the fault plan; true when
  /// the programming fails (CRC error on the configuration stream).
  bool InjectConfigError();

  struct Slot {
    std::string design;  // "" = empty
    u64 last_used = 0;   // LRU tick
  };

  u32 capacity_les_;
  u64 config_bytes_per_second_;
  FaultPlan* fault_plan_ = nullptr;

  std::vector<Slot> slots_{1};
  std::string active_design_;
  u64 slot_tick_ = 0;
  ConfigSlotStats slot_stats_;
};

}  // namespace vcop::hw
