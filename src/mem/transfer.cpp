#include "mem/transfer.h"

#include <vector>

namespace vcop::mem {

std::string_view ToString(CopyMode mode) {
  switch (mode) {
    case CopyMode::kDoubleCopy: return "double-copy";
    case CopyMode::kSingleCopy: return "single-copy";
    case CopyMode::kDma: return "dma";
    case CopyMode::kIommu: return "iommu";
  }
  return "?";
}

TransferEngine::TransferEngine(AhbModel ahb, Frequency cpu_clock,
                               CopyMode mode, u32 sdram_cycles_per_word,
                               u32 iommu_walk_cycles, u32 iotlb_entries)
    : ahb_(ahb),
      cpu_clock_(cpu_clock),
      mode_(mode),
      sdram_cycles_per_word_(sdram_cycles_per_word),
      iommu_(cpu_clock, iommu_walk_cycles, iotlb_entries) {
  VCOP_CHECK_MSG(cpu_clock.valid(), "CPU clock must be nonzero");
}

Picoseconds TransferEngine::PriceOnePass(u32 len) const {
  // The loop pays both ends at once; the slower of the two dominates
  // but the CPU executes both accesses serially, so the costs add.
  return ahb_.TimeFor(len) +
         cpu_clock_.Duration(DivCeil(len, 4) * sdram_cycles_per_word_);
}

Picoseconds TransferEngine::PriceTransfer(u32 len) const {
  return PriceIn(mode_, len);
}

Picoseconds TransferEngine::PriceIn(CopyMode mode, u32 len) const {
  const u64 words = DivCeil(len, 4);
  switch (mode) {
    case CopyMode::kSingleCopy:
      // Direct copy: one pass touching user SDRAM and the DP-RAM.
      return PriceOnePass(len);
    case CopyMode::kDoubleCopy:
      // user<->bounce (SDRAM both ends), then bounce<->DP (SDRAM+AHB):
      // the data is touched twice.
      return 2 * cpu_clock_.Duration(words * sdram_cycles_per_word_) +
             PriceOnePass(len);
    case CopyMode::kDma: {
      // Channel programming on the CPU, then bus-limited streaming:
      // each word pays the AHB beat plus two cycles of SDRAM access,
      // no per-word CPU work.
      constexpr u64 kDmaSetupCpuCycles = 200;
      const u64 bursts = DivCeil(words, ahb_.timing().max_burst_beats);
      const u64 bus_cycles =
          bursts * ahb_.timing().setup_cycles +
          words * (ahb_.timing().cycles_per_beat + 2);
      return cpu_clock_.Duration(kDmaSetupCpuCycles) +
             ahb_.clock().Duration(bus_cycles);
    }
    case CopyMode::kIommu:
      return PriceDirect(len);
  }
  VCOP_CHECK(false);
  return 0;
}

Picoseconds TransferEngine::PriceReload(u32 len) const {
  // The user -> bounce pass ran when the copy was made; only the
  // bounce -> DP-RAM pass is left.
  return KeepsBounceCopies() ? PriceOnePass(len) : PriceTransfer(len);
}

Picoseconds TransferEngine::PriceParams(u32 len) const {
  return PriceIn(mode_ == CopyMode::kIommu ? CopyMode::kDoubleCopy : mode_,
                 len);
}

Picoseconds TransferEngine::PriceDirect(u32 len) const {
  // Pure bus streaming: the DMA master reads/writes user SDRAM pages by
  // scatter-gather (the IOMMU resolved them already) and the DP-RAM
  // directly. Per word: one AHB beat plus two SDRAM access cycles; per
  // INCR burst: the setup cycles. No CPU pass ever touches the data.
  const u64 words = DivCeil(len, 4);
  const u64 bursts = DivCeil(words, ahb_.timing().max_burst_beats);
  const u64 bus_cycles = bursts * ahb_.timing().setup_cycles +
                         words * (ahb_.timing().cycles_per_beat + 2);
  return ahb_.clock().Duration(bus_cycles);
}

template <typename Copy>
TransferResult TransferEngine::Translated(IommuAsid asid, UserMemory& user,
                                          UserAddr addr, u32 len, Copy copy) {
  if (mode_ != CopyMode::kIommu) return copy();
  // The DMA master scatter-gathers straight between the user pages and
  // the DP-RAM once the IOMMU has resolved and pinned them. On a
  // translation fault the walk time already spent is all the transfer
  // costs; the VIM services it like a bus error.
  const Iommu::Translation t = iommu_.Translate(asid, addr, len);
  if (!t.ok) {
    TransferResult r;
    r.time = t.time;
    r.iommu_fault = true;
    return r;
  }
  iommu_.PinRange(user, addr, len);
  TransferResult r = copy();
  iommu_.UnpinRange(user, addr, len);
  r.time += t.time;
  if (!r.bus_error) zero_copy_bytes_ += r.bytes;
  return r;
}

TransferResult TransferEngine::LoadPage(IommuAsid asid, UserMemory& user,
                                        UserAddr src, DualPortRam& dp,
                                        u32 dst, u32 len, bool reload) {
  // A re-load reads user memory too: the bounce copy equals it (every
  // write-back refreshes it on its way out).
  if (KeepsBounceCopies()) ++bounce_copies_;
  const Picoseconds price = reload ? PriceReload(len) : PriceTransfer(len);
  return Translated(asid, user, src, len, [&] {
    return CopyIn(user, src, dp, dst, len, price);
  });
}

TransferResult TransferEngine::StorePage(IommuAsid asid, DualPortRam& dp,
                                         u32 src, UserMemory& user,
                                         UserAddr dst, u32 len) {
  if (KeepsBounceCopies()) ++bounce_copies_;
  const Picoseconds price = PriceTransfer(len);
  return Translated(asid, user, dst, len, [&] {
    return CopyOut(dp, src, user, dst, len, price);
  });
}

void TransferEngine::Invalidate(IommuAsid asid) {
  if (mode_ == CopyMode::kIommu) iommu_.InvalidateAsid(asid);
}

TransferResult TransferEngine::CopyIn(const UserMemory& user, UserAddr src,
                                      DualPortRam& dp, u32 dst, u32 len,
                                      Picoseconds price) {
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kAhbError)) {
    // The transfer errors mid-pass: no data reaches the DP-RAM, but the
    // bus time was wasted. The VIM decides whether to retry.
    TransferResult r;
    r.time = price;
    r.bus_error = true;
    total_time_ += r.time;
    return r;
  }
  auto view = user.View(src, len);
  dp.Write(DualPortRam::Port::kProcessor, dst, view);
  TransferResult r;
  r.bytes = len;
  r.time = price;
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kAhbRetry)) {
    // The slave RETRYed one beat; the transfer still succeeds but the
    // beat was run twice.
    r.retried_beats = 1;
    r.time += ahb_.clock().Duration(ahb_.timing().setup_cycles +
                                    ahb_.timing().cycles_per_beat);
  }
  bytes_loaded_ += len;
  total_time_ += r.time;
  return r;
}

TransferResult TransferEngine::CopyOut(DualPortRam& dp, u32 src,
                                       UserMemory& user, UserAddr dst,
                                       u32 len, Picoseconds price) {
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kAhbError)) {
    TransferResult r;
    r.time = price;
    r.bus_error = true;
    total_time_ += r.time;
    return r;
  }
  std::vector<u8> buf(len);
  dp.Read(DualPortRam::Port::kProcessor, src, buf);
  user.WriteBytes(dst, buf);
  TransferResult r;
  r.bytes = len;
  r.time = price;
  if (fault_plan_ && fault_plan_->ShouldInject(FaultSite::kAhbRetry)) {
    r.retried_beats = 1;
    r.time += ahb_.clock().Duration(ahb_.timing().setup_cycles +
                                    ahb_.timing().cycles_per_beat);
  }
  bytes_stored_ += len;
  total_time_ += r.time;
  return r;
}

}  // namespace vcop::mem
