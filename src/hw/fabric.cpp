#include "hw/fabric.h"

#include "base/table.h"

namespace vcop::hw {

FpgaFabric::FpgaFabric(u32 capacity_les, u64 config_bytes_per_second)
    : capacity_les_(capacity_les),
      config_bytes_per_second_(config_bytes_per_second) {
  VCOP_CHECK_MSG(capacity_les >= 1, "PLD capacity must be nonzero");
  VCOP_CHECK_MSG(config_bytes_per_second >= 1,
                 "configuration throughput must be nonzero");
}

Result<Picoseconds> FpgaFabric::PriceConfigure(
    const Bitstream& bitstream) const {
  if (bitstream.logic_elements > capacity_les_) {
    return ResourceExhaustedError(StrFormat(
        "design '%s' needs %u LEs but the PLD has %u",
        bitstream.name.c_str(), bitstream.logic_elements, capacity_les_));
  }
  if (!bitstream.create) {
    return InvalidArgumentError("bitstream has no core factory");
  }
  if (!bitstream.cp_clock.valid() || !bitstream.imu_clock.valid()) {
    return InvalidArgumentError(
        StrFormat("bitstream '%s' has unspecified clocks",
                  bitstream.name.c_str()));
  }
  const unsigned __int128 ps =
      static_cast<unsigned __int128>(bitstream.size_bytes) *
      kPicosecondsPerSecond / config_bytes_per_second_;
  return static_cast<Picoseconds>(ps);
}

bool FpgaFabric::InjectConfigError() {
  return fault_plan_ != nullptr &&
         fault_plan_->ShouldInject(FaultSite::kConfigError);
}

void FpgaFabric::SetConfigSlots(u32 n) {
  VCOP_CHECK_MSG(n >= 1, "configuration cache needs at least one slot");
  slots_.assign(n, Slot{});
  active_design_.clear();
  slot_tick_ = 0;
  slot_stats_ = ConfigSlotStats{};
}

bool FpgaFabric::DesignResident(const std::string& name) const {
  for (const Slot& slot : slots_) {
    if (!slot.design.empty() && slot.design == name) return true;
  }
  return false;
}

Result<SlotAcquire> FpgaFabric::AcquireDesign(const Bitstream& bitstream) {
  if (bitstream.name == active_design_) return SlotAcquire{};

  // Hit on a dormant slot: rewrite only the region-select frame.
  for (Slot& slot : slots_) {
    if (slot.design != bitstream.name) continue;
    if (InjectConfigError()) {
      // The activation frame was corrupted mid-write; the slot's
      // configuration can no longer be trusted.
      slot = Slot{};
      return UnavailableError(
          StrFormat("activation of resident design '%s' failed (CRC "
                    "error on the configuration stream)",
                    bitstream.name.c_str()));
    }
    const unsigned __int128 ps =
        static_cast<unsigned __int128>(kSlotActivationBytes) *
        kPicosecondsPerSecond / config_bytes_per_second_;
    const Picoseconds time = static_cast<Picoseconds>(ps);
    slot.last_used = ++slot_tick_;
    active_design_ = bitstream.name;
    ++slot_stats_.hits;
    slot_stats_.activation_time += time;
    SlotAcquire acquired;
    acquired.time = time;
    acquired.activated = true;
    return acquired;
  }

  // Miss: full configuration into the LRU slot.
  const Result<Picoseconds> priced = PriceConfigure(bitstream);
  if (!priced.ok()) return priced.status();
  if (InjectConfigError()) {
    // The stream never completed; every slot keeps its previous design.
    return UnavailableError(
        StrFormat("configuration of '%s' failed (CRC error on the "
                  "configuration stream)",
                  bitstream.name.c_str()));
  }
  Slot* victim = &slots_.front();
  for (Slot& slot : slots_) {
    if (slot.design.empty()) {
      victim = &slot;
      break;
    }
    if (slot.last_used < victim->last_used) victim = &slot;
  }
  if (!victim->design.empty()) ++slot_stats_.evictions;
  victim->design = bitstream.name;
  victim->last_used = ++slot_tick_;
  active_design_ = bitstream.name;
  ++slot_stats_.misses;
  slot_stats_.configure_time += priced.value();
  SlotAcquire acquired;
  acquired.time = priced.value();
  acquired.reconfigured = true;
  return acquired;
}

}  // namespace vcop::hw
