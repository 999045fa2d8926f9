// IOMMU subsystem tests (DESIGN.md §13): IO-TLB behaviour, the
// pin/reclaim contract, translation-fault recovery, and the zero-copy
// transfer mode (`copy_mode = iommu`) end to end through the VIM.
#include <gtest/gtest.h>

#include <vector>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/workloads.h"
#include "base/fault.h"
#include "mem/iommu.h"
#include "mem/transfer.h"
#include "os/vim.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"

namespace vcop {
namespace {

using mem::AhbModel;
using mem::AhbTiming;
using mem::CopyMode;
using mem::DualPortRam;
using mem::Iommu;
using mem::kUserPageBytes;
using mem::TransferEngine;
using mem::TransferResult;
using mem::UserMemory;
using runtime::Epxa1Config;
using runtime::FpgaSystem;

// ----- unit rig: a zero-copy engine and its IOMMU over a trusting
// walker -----

class IommuTest : public ::testing::Test {
 protected:
  IommuTest()
      : user_(1 << 20),
        dp_(16384),
        engine_(AhbModel(AhbTiming{}, Frequency::MHz(133)),
                Frequency::MHz(133), CopyMode::kIommu,
                /*sdram_cycles_per_word=*/12, /*iommu_walk_cycles=*/120,
                /*iotlb_entries=*/8),
        iommu_(engine_.iommu()) {
    iommu_.set_walker([](mem::IommuAsid, mem::UserAddr) { return true; });
  }

  /// Allocates `bytes` and fills them with a seeded pattern.
  mem::UserAddr Stage(u32 bytes, u8 seed) {
    const mem::UserAddr addr = user_.Allocate(bytes).value();
    auto view = user_.View(addr, bytes);
    for (u32 i = 0; i < bytes; ++i)
      view[i] = static_cast<u8>(seed + i * 13);
    return addr;
  }

  std::vector<u8> DpBytes(u32 offset, u32 len) {
    std::vector<u8> out(len);
    dp_.Read(DualPortRam::Port::kProcessor, offset, out);
    return out;
  }

  UserMemory user_;
  DualPortRam dp_;
  TransferEngine engine_;
  Iommu& iommu_;
};

TEST_F(IommuTest, IotlbHitsAfterCompulsoryMissAndEvictsRoundRobin) {
  // One 4 KB user page, accessed twice: miss + walk, then hit.
  const mem::UserAddr a = Stage(kUserPageBytes, 1);
  ASSERT_FALSE(engine_.LoadPage(1, user_, a, dp_, 0, 2048).iommu_fault);
  EXPECT_EQ(iommu_.stats().iotlb_misses, 1u);
  EXPECT_EQ(iommu_.stats().walks, 1u);
  ASSERT_FALSE(engine_.LoadPage(1, user_, a, dp_, 0, 2048).iommu_fault);
  EXPECT_EQ(iommu_.stats().iotlb_hits, 1u);
  EXPECT_EQ(iommu_.stats().iotlb_misses, 1u);

  // Touch 9 distinct pages through the 8-entry IO-TLB: at least one
  // valid entry must be displaced.
  const mem::UserAddr big = Stage(9 * kUserPageBytes, 2);
  for (u32 p = 0; p < 9; ++p) {
    ASSERT_FALSE(engine_
                     .LoadPage(1, user_, big + p * kUserPageBytes, dp_, 0,
                               256)
                     .iommu_fault);
  }
  EXPECT_GT(iommu_.stats().iotlb_evictions, 0u);
  EXPECT_EQ(iommu_.live_entries(), 8u);
}

TEST_F(IommuTest, InvalidateAsidRemovesExactlyTheTenantsEntries) {
  // This is the primitive FlushAsid/SaveContext/UnregisterTenant all
  // delegate to, so exactness here is exactness of the OS shootdowns.
  const mem::UserAddr a = Stage(3 * kUserPageBytes, 3);
  const mem::UserAddr b = Stage(2 * kUserPageBytes, 4);
  for (u32 p = 0; p < 3; ++p)
    ASSERT_FALSE(engine_
                     .LoadPage(7, user_, a + p * kUserPageBytes, dp_, 0, 64)
                     .iommu_fault);
  for (u32 p = 0; p < 2; ++p)
    ASSERT_FALSE(engine_
                     .LoadPage(9, user_, b + p * kUserPageBytes, dp_, 0, 64)
                     .iommu_fault);
  ASSERT_EQ(iommu_.live_entries_of(7), 3u);
  ASSERT_EQ(iommu_.live_entries_of(9), 2u);

  EXPECT_EQ(iommu_.InvalidateAsid(7), 3u);
  EXPECT_EQ(iommu_.live_entries_of(7), 0u);
  EXPECT_EQ(iommu_.live_entries_of(9), 2u);  // the other tenant survives
  EXPECT_EQ(iommu_.stats().entries_shot_down, 3u);

  // The surviving tenant still hits; the flushed one re-walks.
  const u64 hits = iommu_.stats().iotlb_hits;
  const u64 walks = iommu_.stats().walks;
  ASSERT_FALSE(engine_.LoadPage(9, user_, b, dp_, 0, 64).iommu_fault);
  EXPECT_EQ(iommu_.stats().iotlb_hits, hits + 1);
  ASSERT_FALSE(engine_.LoadPage(7, user_, a, dp_, 0, 64).iommu_fault);
  EXPECT_EQ(iommu_.stats().walks, walks + 1);
}

TEST_F(IommuTest, PinRefcountsStackAcrossOverlappingDmas) {
  const mem::UserAddr region = user_.Allocate(3 * kUserPageBytes).value();
  const mem::UserAddr base =
      (region + kUserPageBytes - 1) & ~(kUserPageBytes - 1);

  // Two in-flight DMAs overlap on the second page: it is pinned twice,
  // the first page once.
  iommu_.PinRange(user_, base, kUserPageBytes + 512);       // pages 0, 1
  iommu_.PinRange(user_, base + kUserPageBytes, 512);       // page 1 only
  EXPECT_EQ(user_.PinCount(base), 1u);
  EXPECT_EQ(user_.PinCount(base + kUserPageBytes), 2u);

  // Reclaim must refuse while either DMA is outstanding.
  EXPECT_EQ(user_.Reclaim(region).code(), ErrorCode::kFailedPrecondition);
  iommu_.UnpinRange(user_, base, kUserPageBytes + 512);
  EXPECT_EQ(user_.PinCount(base), 0u);
  EXPECT_EQ(user_.PinCount(base + kUserPageBytes), 1u);
  EXPECT_EQ(user_.Reclaim(region).code(), ErrorCode::kFailedPrecondition);

  // Last unpin releases the region for reclaim.
  iommu_.UnpinRange(user_, base + kUserPageBytes, 512);
  EXPECT_EQ(user_.pinned_pages(), 0u);
  EXPECT_TRUE(user_.Reclaim(region).ok());
  EXPECT_EQ(iommu_.stats().pages_pinned, iommu_.stats().pages_unpinned);
}

TEST_F(IommuTest, SynchronousDmaPinsOnlyForItsOwnDuration) {
  const mem::UserAddr a = Stage(kUserPageBytes, 6);
  ASSERT_FALSE(engine_.LoadPage(1, user_, a, dp_, 0, 2048).iommu_fault);
  // LoadPage pins around the bus transaction and unpins before
  // returning — nothing may stay pinned afterwards.
  EXPECT_EQ(user_.pinned_pages(), 0u);
  EXPECT_GT(iommu_.stats().pages_pinned, 0u);
  EXPECT_EQ(iommu_.stats().pages_pinned, iommu_.stats().pages_unpinned);
}

TEST_F(IommuTest, TranslationFaultMovesNothingAndRetrySucceeds) {
  const mem::UserAddr a = Stage(2048, 7);
  FaultPlan plan;
  plan.At(FaultSite::kIommuTranslationFault, 1);
  engine_.set_fault_plan(&plan);

  const TransferResult r = engine_.LoadPage(1, user_, a, dp_, 0, 2048);
  EXPECT_TRUE(r.iommu_fault);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_GT(r.time, 0u);  // the wasted walk was still paid for
  EXPECT_EQ(iommu_.stats().translation_faults, 1u);
  EXPECT_EQ(user_.pinned_pages(), 0u);

  // The injected fault was transient: the retry walks and completes.
  const TransferResult again = engine_.LoadPage(1, user_, a, dp_, 0, 2048);
  EXPECT_FALSE(again.iommu_fault);
  EXPECT_EQ(again.bytes, 2048u);
  std::vector<u8> expect(user_.View(a, 2048).begin(),
                         user_.View(a, 2048).end());
  EXPECT_EQ(DpBytes(0, 2048), expect);
  engine_.set_fault_plan(nullptr);
}

TEST_F(IommuTest, UnmappedPageIsRefusedByTheWalker) {
  iommu_.set_walker([](mem::IommuAsid, mem::UserAddr) { return false; });
  const mem::UserAddr a = Stage(2048, 8);
  const TransferResult r = engine_.LoadPage(1, user_, a, dp_, 0, 2048);
  EXPECT_TRUE(r.iommu_fault);
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_EQ(iommu_.stats().translation_faults, 1u);
  EXPECT_EQ(iommu_.live_entries(), 0u);  // nothing was installed
}

TEST_F(IommuTest, IotlbCorruptionIsDetectedAndRewalkedTransparently) {
  const mem::UserAddr a = Stage(kUserPageBytes, 9);
  ASSERT_FALSE(engine_.LoadPage(1, user_, a, dp_, 0, 2048).iommu_fault);

  FaultPlan plan;
  plan.At(FaultSite::kIotlbCorrupt, 1);
  engine_.set_fault_plan(&plan);
  const TransferResult r = engine_.LoadPage(1, user_, a, dp_, 0, 2048);
  // Parity drops the damaged entry and the access re-walks: success,
  // correct bytes, one parity drop, one extra walk.
  EXPECT_FALSE(r.iommu_fault);
  EXPECT_EQ(r.bytes, 2048u);
  EXPECT_EQ(iommu_.stats().iotlb_parity_drops, 1u);
  EXPECT_EQ(iommu_.stats().walks, 2u);
  std::vector<u8> expect(user_.View(a, 2048).begin(),
                         user_.View(a, 2048).end());
  EXPECT_EQ(DpBytes(0, 2048), expect);
  engine_.set_fault_plan(nullptr);
}

// ----- end to end through the VIM -----

TEST(IommuVimTest, ZeroCopyAdpcmIsByteExactWithZeroBounceCopies) {
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 42);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);

  os::KernelConfig off = Epxa1Config();  // worst-case CPU path underneath
  off.vim.copy_mode = CopyMode::kDoubleCopy;
  FpgaSystem sys_off(off);
  auto run_off = runtime::RunAdpcmVim(sys_off, input);
  ASSERT_TRUE(run_off.ok()) << run_off.status().ToString();
  ASSERT_EQ(run_off.value().output, expect);
  EXPECT_GT(sys_off.kernel().vim().transfer_engine().bounce_copies(), 0u);

  os::KernelConfig on = off;
  on.vim.copy_mode = CopyMode::kIommu;
  FpgaSystem sys_on(on);
  auto run_on = runtime::RunAdpcmVim(sys_on, input);
  ASSERT_TRUE(run_on.ok()) << run_on.status().ToString();
  EXPECT_EQ(run_on.value().output, expect);

  const TransferEngine& engine = sys_on.kernel().vim().transfer_engine();
  const mem::IommuStats& io = engine.iommu().stats();
  EXPECT_EQ(engine.bounce_copies(), 0u);
  EXPECT_GT(engine.zero_copy_bytes(), 0u);
  EXPECT_GT(io.iotlb_hits + io.iotlb_misses, 0u);
  // Zero-copy must be no slower than the CPU-copy run it replaces, and
  // its DP management takes under a third of the double copy's.
  EXPECT_LE(run_on.value().report.total, run_off.value().report.total);
  EXPECT_LT(run_on.value().report.t_dp * 3, run_off.value().report.t_dp);
  // And every synchronous pin was released.
  EXPECT_EQ(sys_on.kernel().user_memory().pinned_pages(), 0u);
  EXPECT_EQ(io.pages_pinned, io.pages_unpinned);
}

TEST(IommuVimTest, TransientTranslationFaultRecoversToExactOutput) {
  const std::vector<u8> input = apps::MakeAdpcmStream(4096, 7);
  std::vector<i16> expect(input.size() * 2);
  apps::AdpcmState state;
  apps::AdpcmDecode(input, expect, state);

  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = CopyMode::kIommu;
  FpgaSystem sys(config);
  FaultPlan plan;
  plan.At(FaultSite::kIommuTranslationFault, 1);
  sys.kernel().InstallFaultPlan(&plan);

  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);
  EXPECT_GE(run.value().report.vim.iommu_faults, 1u);
  EXPECT_GE(sys.kernel().vim().service_stats().transfer_retries, 1u);
  EXPECT_EQ(plan.stats(FaultSite::kIommuTranslationFault).injected, 1u);
  sys.kernel().InstallFaultPlan(nullptr);
}

TEST(IommuVimTest, ShootdownFiresAtEndOfOperationAndLeavesNoLiveEntries) {
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = CopyMode::kIommu;
  FpgaSystem sys(config);
  const std::vector<u8> input = apps::MakeAdpcmStream(4096, 11);
  auto run = runtime::RunAdpcmVim(sys, input);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const mem::Iommu& iommu = sys.kernel().vim().transfer_engine().iommu();
  const mem::IommuStats& s = iommu.stats();
  // End-of-operation shot the tenant's entries down after the final
  // write-back sweep — the IO-TLB holds nothing stale across runs.
  EXPECT_GT(s.shootdowns, 0u);
  EXPECT_GT(s.entries_shot_down, 0u);
  EXPECT_EQ(iommu.live_entries(), 0u);
}

TEST(IommuVimTest, OverlappedZeroCopyRunBalancesAsyncPins) {
  // Background cleaning overlaps write-backs with the run; every DMA
  // the fault services, the clean units and the sweep start still
  // returns its pins.
  os::KernelConfig config = Epxa1Config();
  config.vim.copy_mode = CopyMode::kIommu;
  config.vim.prefetch = os::PrefetchKind::kClean;
  FpgaSystem sys(config);

  const u32 width = 256, height = 24;
  const std::vector<u8> image = apps::MakeTestImage(width, height, 3);
  std::vector<u8> expect(image.size());
  apps::Convolve3x3(image, width, height, apps::SharpenKernel(), 0, expect);
  auto run = runtime::RunConv3x3Vim(sys, image, width, height,
                                    apps::SharpenKernel(), 0);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().output, expect);

  const TransferEngine& engine = sys.kernel().vim().transfer_engine();
  const mem::IommuStats& io = engine.iommu().stats();
  EXPECT_EQ(sys.kernel().user_memory().pinned_pages(), 0u);
  EXPECT_EQ(io.pages_pinned, io.pages_unpinned);
  EXPECT_EQ(engine.bounce_copies(), 0u);
  const os::VimAccounting& vim = run.value().report.vim;
  EXPECT_GT(vim.cleaned_pages, 0u);
  // Every byte the VIM moved, cleaned pages included, crossed the IOMMU.
  EXPECT_EQ(engine.zero_copy_bytes(),
            vim.bytes_loaded + vim.bytes_written_back);

  // A cleaned page is pinned and translated like the write-back it
  // replaces: adpcm 8 KB cleans most of its output pages, and pins and
  // walks what it does without cleaning.
  const std::vector<u8> input = apps::MakeAdpcmStream(8192, 20040216);
  auto adpcm = [&](os::PrefetchKind prefetch) {
    config.vim.prefetch = prefetch;
    FpgaSystem adpcm_sys(config);
    auto adpcm_run = runtime::RunAdpcmVim(adpcm_sys, input);
    VCOP_CHECK_MSG(adpcm_run.ok(), adpcm_run.status().ToString());
    EXPECT_EQ(adpcm_sys.kernel().user_memory().pinned_pages(), 0u);
    return std::pair{
        adpcm_run.value().report.vim,
        adpcm_sys.kernel().vim().transfer_engine().iommu().stats()};
  };
  const auto [none_vim, none_io] = adpcm(os::PrefetchKind::kNone);
  const auto [clean_vim, clean_io] = adpcm(os::PrefetchKind::kClean);
  EXPECT_EQ(none_vim.cleaned_pages, 0u);
  EXPECT_GT(clean_vim.cleaned_pages, clean_vim.writebacks);
  EXPECT_EQ(clean_vim.writebacks + clean_vim.cleaned_pages,
            none_vim.writebacks);
  EXPECT_EQ(clean_io.pages_pinned, none_io.pages_pinned);
  EXPECT_EQ(clean_io.walks, none_io.walks);
}

}  // namespace
}  // namespace vcop
