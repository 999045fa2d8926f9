// Unit tests for the memory substrate: page geometry, dual-port RAM,
// user memory, the AHB cost model and the transfer engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "base/fault.h"
#include "mem/ahb.h"
#include "mem/dp_ram.h"
#include "mem/page.h"
#include "mem/transfer.h"
#include "mem/user_memory.h"
#include "runtime/fpga_api.h"

namespace vcop::mem {
namespace {

// ----- PageGeometry -----

TEST(PageGeometryTest, Epxa1Shape) {
  // "eight 2KB pages (the total size is therefore of 16KB)" (§4).
  PageGeometry g(2048, 8);
  EXPECT_EQ(g.total_bytes(), 16384u);
  EXPECT_EQ(g.page_shift(), 11u);
  EXPECT_EQ(g.offset_mask(), 2047u);
}

TEST(PageGeometryTest, PageArithmetic) {
  PageGeometry g(2048, 8);
  EXPECT_EQ(g.PageOf(0), 0u);
  EXPECT_EQ(g.PageOf(2047), 0u);
  EXPECT_EQ(g.PageOf(2048), 1u);
  EXPECT_EQ(g.OffsetIn(2049), 1u);
  EXPECT_EQ(g.FrameBase(3), 6144u);
  EXPECT_EQ(g.PagesFor(1), 1u);
  EXPECT_EQ(g.PagesFor(2048), 1u);
  EXPECT_EQ(g.PagesFor(2049), 2u);
  EXPECT_EQ(g.PagesFor(32768), 16u);
}

TEST(PageGeometryDeathTest, RejectsNonPowerOfTwoPages) {
  EXPECT_DEATH(PageGeometry(1000, 8), "2\\^k");
}

// ----- DualPortRam -----

TEST(DualPortRamTest, BulkReadWriteRoundTrip) {
  DualPortRam ram(4096);
  const std::vector<u8> data = {1, 2, 3, 4, 5};
  ram.Write(DualPortRam::Port::kProcessor, 100, data);
  std::vector<u8> back(5);
  ram.Read(DualPortRam::Port::kCoprocessor, 100, back);
  EXPECT_EQ(back, data);
}

TEST(DualPortRamTest, WordAccessIsLittleEndian) {
  DualPortRam ram(64);
  ram.WriteWord(DualPortRam::Port::kProcessor, 0, 4, 0x11223344);
  std::vector<u8> bytes(4);
  ram.Read(DualPortRam::Port::kProcessor, 0, bytes);
  EXPECT_EQ(bytes, (std::vector<u8>{0x44, 0x33, 0x22, 0x11}));
  EXPECT_EQ(ram.ReadWord(DualPortRam::Port::kCoprocessor, 0, 2), 0x3344u);
  EXPECT_EQ(ram.ReadWord(DualPortRam::Port::kCoprocessor, 2, 2), 0x1122u);
  EXPECT_EQ(ram.ReadWord(DualPortRam::Port::kCoprocessor, 3, 1), 0x11u);
}

TEST(DualPortRamTest, NarrowWritesDoNotClobberNeighbours) {
  DualPortRam ram(64);
  ram.WriteWord(DualPortRam::Port::kProcessor, 0, 4, 0xAABBCCDD);
  ram.WriteWord(DualPortRam::Port::kCoprocessor, 2, 2, 0x1234);
  EXPECT_EQ(ram.ReadWord(DualPortRam::Port::kProcessor, 0, 4), 0x1234CCDDu);
}

TEST(DualPortRamTest, PerPortTrafficCounters) {
  DualPortRam ram(64);
  ram.WriteWord(DualPortRam::Port::kProcessor, 0, 4, 1);
  ram.ReadWord(DualPortRam::Port::kCoprocessor, 0, 2);
  ram.ReadWord(DualPortRam::Port::kCoprocessor, 0, 4);
  EXPECT_EQ(ram.bytes_written(DualPortRam::Port::kProcessor), 4u);
  EXPECT_EQ(ram.bytes_read(DualPortRam::Port::kProcessor), 0u);
  EXPECT_EQ(ram.bytes_read(DualPortRam::Port::kCoprocessor), 6u);
}

TEST(DualPortRamDeathTest, OutOfBoundsAborts) {
  DualPortRam ram(64);
  EXPECT_DEATH(ram.ReadWord(DualPortRam::Port::kProcessor, 64, 4),
               "out of bounds");
}

TEST(DualPortRamDeathTest, UnalignedWordAborts) {
  DualPortRam ram(64);
  EXPECT_DEATH(ram.ReadWord(DualPortRam::Port::kProcessor, 2, 4),
               "unaligned");
}

// ----- UserMemory -----

TEST(UserMemoryTest, AllocationsAreDisjointAndAligned) {
  UserMemory mem(1 << 16);
  auto a = mem.Allocate(100);
  auto b = mem.Allocate(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value() % 16, 0u);
  EXPECT_EQ(b.value() % 16, 0u);
  EXPECT_GE(b.value(), a.value() + 100);
}

TEST(UserMemoryTest, AddressZeroNeverAllocated) {
  UserMemory mem(1 << 16);
  auto a = mem.Allocate(8);
  ASSERT_TRUE(a.ok());
  EXPECT_NE(a.value(), 0u);
  EXPECT_FALSE(mem.Contains(0, 1));
}

TEST(UserMemoryTest, ContainsTracksRegions) {
  UserMemory mem(1 << 16);
  auto a = mem.Allocate(64);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(mem.Contains(a.value(), 64));
  EXPECT_TRUE(mem.Contains(a.value() + 10, 54));
  EXPECT_FALSE(mem.Contains(a.value(), 65));
}

TEST(UserMemoryTest, LookupResolvesEachOfManyRegions) {
  // Odd sizes leave a 16-byte alignment gap after most regions; the
  // lookup must resolve every region's bytes, and none of a gap's.
  UserMemory mem(1 << 20);
  struct Placed {
    UserAddr base;
    u32 size;
  };
  std::vector<Placed> regions;
  for (u32 i = 0; i < 500; ++i) {
    const u32 size = 1 + (i * 37) % 200;
    auto a = mem.Allocate(size);
    ASSERT_TRUE(a.ok());
    regions.push_back({a.value(), size});
    std::ranges::fill(mem.View(a.value(), size), static_cast<u8>(i));
  }
  auto expect_resolved = [&](const Placed& r, bool resolved) {
    EXPECT_EQ(mem.Contains(r.base, 1), resolved) << r.base;
    EXPECT_EQ(mem.Contains(r.base + r.size - 1, 1), resolved) << r.base;
    EXPECT_EQ(mem.Contains(r.base, r.size), resolved) << r.base;
  };
  usize gaps = 0;
  for (usize i = 0; i < regions.size(); ++i) {
    const Placed& r = regions[i];
    expect_resolved(r, true);
    // One byte past the end.
    EXPECT_FALSE(mem.Contains(r.base, r.size + 1)) << r.base;
    if (i + 1 == regions.size()) continue;
    const UserAddr end = r.base + r.size;
    ASSERT_EQ(regions[i + 1].base, (end + 15) / 16 * 16);
    for (UserAddr gap = end; gap < regions[i + 1].base; ++gap) {
      EXPECT_FALSE(mem.Contains(gap, 1)) << gap;
      ++gaps;
    }
  }
  EXPECT_GT(gaps, regions.size());

  // Reclaiming a middle region unmaps only it.
  const usize middle = regions.size() / 2;
  ASSERT_TRUE(mem.Reclaim(regions[middle].base).ok());
  expect_resolved(regions[middle], false);
  expect_resolved(regions[middle - 1], true);
  expect_resolved(regions[middle + 1], true);
  EXPECT_EQ(mem.Reclaim(regions[middle].base).code(), ErrorCode::kNotFound);
  // Freeing its bytes leaves every other region's intact.
  for (usize i = 0; i < regions.size(); ++i) {
    if (i == middle) continue;
    for (const u8 b : mem.View(regions[i].base, regions[i].size)) {
      ASSERT_EQ(b, static_cast<u8>(i)) << regions[i].base;
    }
  }
}

TEST(UserMemoryTest, ReusedHostBytesReadZero) {
  // A new region may get host bytes that an earlier system wrote and
  // freed; they must read zero like fresh ones. The sizes span blocks
  // recycled from the heap and ones too large for it.
  const std::vector<u32> sizes = {16, 100, 2048, 4096, 8192, 32768, 200000};
  {
    UserMemory dirty(1 << 20);
    for (const u32 size : sizes) {
      auto a = dirty.Allocate(size);
      ASSERT_TRUE(a.ok());
      std::ranges::fill(dirty.View(a.value(), size), u8{0xFF});
    }
  }
  UserMemory mem(1 << 20);
  for (const u32 size : sizes) {
    auto a = mem.Allocate(size);
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(std::ranges::all_of(mem.View(a.value(), size),
                                    [](u8 b) { return b == 0; }))
        << size;
  }
}

template <typename T>
void ExpectAlignedView(UserMemory& mem, u32 count) {
  auto a = mem.Allocate(count * static_cast<u32>(sizeof(T)));
  ASSERT_TRUE(a.ok());
  runtime::HostBuffer<T> buffer(&mem, a.value(), count);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.view().data()) % alignof(T),
            0u);
}

TEST(UserMemoryTest, HostBufferViewsAreAlignedForTheirType) {
  // The typed view reinterprets the region's host bytes, so its
  // alignment comes from the host block, whatever the odd-sized regions
  // allocated before it.
  UserMemory mem(1 << 16);
  for (u32 odd = 1; odd <= 7; odd += 2) {
    ASSERT_TRUE(mem.Allocate(odd).ok());
    ExpectAlignedView<i16>(mem, 3);
    ExpectAlignedView<u32>(mem, 5);
    ExpectAlignedView<u64>(mem, 7);
  }
}

TEST(UserMemoryTest, ReadWriteRoundTrip) {
  UserMemory mem(1 << 16);
  auto a = mem.Allocate(16);
  ASSERT_TRUE(a.ok());
  const std::vector<u8> data = {9, 8, 7};
  mem.WriteBytes(a.value() + 4, data);
  std::vector<u8> back(3);
  mem.ReadBytes(a.value() + 4, back);
  EXPECT_EQ(back, data);
}

TEST(UserMemoryTest, ExhaustionReportsError) {
  UserMemory mem(1024);
  auto a = mem.Allocate(2048);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), ErrorCode::kResourceExhausted);
}

TEST(UserMemoryTest, ZeroAllocationRejected) {
  UserMemory mem(1024);
  EXPECT_FALSE(mem.Allocate(0).ok());
}

// ----- AhbModel -----

TEST(AhbModelTest, CyclesScaleWithBursts) {
  AhbTiming timing;
  timing.setup_cycles = 2;
  timing.cycles_per_beat = 1;
  timing.max_burst_beats = 16;
  timing.cpu_cycles_per_word = 8;
  AhbModel ahb(timing, Frequency::MHz(100));
  // 64 bytes = 16 words = 1 burst: 2 + 16*(1+8) = 146 cycles.
  EXPECT_EQ(ahb.CyclesFor(64), 146u);
  // 65 bytes = 17 words = 2 bursts: 4 + 17*9 = 157.
  EXPECT_EQ(ahb.CyclesFor(65), 157u);
  EXPECT_EQ(ahb.CyclesFor(0), 0u);
}

TEST(AhbModelTest, TimeMatchesClock) {
  AhbTiming timing;
  AhbModel ahb(timing, Frequency::MHz(100));
  // 10ns per cycle.
  EXPECT_EQ(ahb.TimeFor(64), ahb.CyclesFor(64) * 10'000);
}

TEST(AhbModelTest, ThroughputIsAsymptotic) {
  AhbTiming timing;
  AhbModel ahb(timing, Frequency::MHz(133));
  const double bps = ahb.ThroughputBytesPerSecond();
  // 16-beat burst: 2 + 16*9 = 146 cycles for 64 bytes at 133 MHz.
  EXPECT_NEAR(bps, 64.0 / 146.0 * 133e6, 1.0);
}

// ----- TransferEngine -----

class TransferEngineTest : public ::testing::Test {
 protected:
  TransferEngineTest()
      : user_(1 << 16),
        dp_(16384),
        engine_(AhbModel(AhbTiming{}, Frequency::MHz(133)),
                Frequency::MHz(133), CopyMode::kDoubleCopy,
                /*sdram_cycles_per_word=*/12) {}

  UserMemory user_;
  DualPortRam dp_;
  TransferEngine engine_;
};

TEST_F(TransferEngineTest, LoadMovesDataAndCharges) {
  auto addr = user_.Allocate(2048);
  ASSERT_TRUE(addr.ok());
  auto span = user_.View(addr.value(), 2048);
  for (u32 i = 0; i < 2048; ++i) span[i] = static_cast<u8>(i * 7);

  const TransferResult r =
      engine_.LoadPage(/*asid=*/0, user_, addr.value(), dp_, 4096, 2048);
  EXPECT_EQ(r.bytes, 2048u);
  EXPECT_GT(r.time, 0u);
  std::vector<u8> back(2048);
  dp_.Read(DualPortRam::Port::kProcessor, 4096, back);
  for (u32 i = 0; i < 2048; ++i) ASSERT_EQ(back[i], static_cast<u8>(i * 7));
  EXPECT_EQ(engine_.total_bytes_loaded(), 2048u);
}

TEST_F(TransferEngineTest, StoreMovesDataBack) {
  auto addr = user_.Allocate(256);
  ASSERT_TRUE(addr.ok());
  std::vector<u8> data(256);
  for (u32 i = 0; i < 256; ++i) data[i] = static_cast<u8>(255 - i);
  dp_.Write(DualPortRam::Port::kProcessor, 0, data);

  engine_.StorePage(/*asid=*/0, dp_, 0, user_, addr.value(), 256);
  std::vector<u8> back(256);
  user_.ReadBytes(addr.value(), back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(engine_.total_bytes_stored(), 256u);
}

TEST_F(TransferEngineTest, DoubleCopyCostsMoreThanSingle) {
  const Picoseconds dbl = engine_.PriceTransfer(2048);
  engine_.set_mode(CopyMode::kSingleCopy);
  const Picoseconds sgl = engine_.PriceTransfer(2048);
  EXPECT_GT(dbl, sgl);
  // The double-copy pass touches the data twice on the SDRAM side; the
  // ratio must be meaningfully above 1 but below 3.
  const double ratio = static_cast<double>(dbl) / static_cast<double>(sgl);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 3.0);
}

TEST_F(TransferEngineTest, PriceIsMonotonicInLength) {
  Picoseconds prev = 0;
  for (u32 len = 256; len <= 4096; len += 256) {
    const Picoseconds t = engine_.PriceTransfer(len);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(TransferEngineTest, ReloadPaysOnlyTheBouncePassInDoubleCopy) {
  // The fixture is the EPXA1 path: a 2 KB first load runs both passes,
  // a re-load only the bounce -> DP-RAM one, which is exactly what a
  // single-copy transfer costs.
  const Picoseconds first = engine_.PriceTransfer(2048);
  const Picoseconds reload = engine_.PriceReload(2048);
  EXPECT_NEAR(ToMicroseconds(first), 173.71, 0.005);
  EXPECT_NEAR(ToMicroseconds(reload), 81.32, 0.005);
  engine_.set_mode(CopyMode::kSingleCopy);
  EXPECT_EQ(reload, engine_.PriceTransfer(2048));
  // The other modes keep no bounce copy: a re-load is priced as a
  // first load.
  for (const CopyMode mode : {CopyMode::kSingleCopy, CopyMode::kIommu}) {
    engine_.set_mode(mode);
    for (const u32 len : {512u, 2048u, 2050u}) {
      EXPECT_EQ(engine_.PriceReload(len), engine_.PriceTransfer(len))
          << ToString(mode) << " " << len;
    }
  }
  // DMA through the IOMMU undercuts both CPU copies.
  EXPECT_LT(engine_.PriceTransfer(2048), reload);
}

TEST_F(TransferEngineTest, ReloadMovesDataAndCountsABouncePass) {
  auto addr = user_.Allocate(2048);
  ASSERT_TRUE(addr.ok());
  auto span = user_.View(addr.value(), 2048);
  for (u32 i = 0; i < 2048; ++i) span[i] = static_cast<u8>(i * 5 + 1);

  const TransferResult r = engine_.LoadPage(/*asid=*/0, user_, addr.value(),
                                            dp_, 2048, 2048, /*reload=*/true);
  EXPECT_EQ(r.bytes, 2048u);
  EXPECT_EQ(r.time, engine_.PriceReload(2048));
  std::vector<u8> back(2048);
  dp_.Read(DualPortRam::Port::kProcessor, 2048, back);
  for (u32 i = 0; i < 2048; ++i) {
    ASSERT_EQ(back[i], static_cast<u8>(i * 5 + 1));
  }
  EXPECT_EQ(engine_.bounce_copies(), 1u);
  EXPECT_EQ(engine_.total_bytes_loaded(), 2048u);
  EXPECT_EQ(engine_.total_time(), r.time);
}

TEST_F(TransferEngineTest, ReloadBusErrorWastesTheReloadPrice) {
  auto addr = user_.Allocate(2048);
  ASSERT_TRUE(addr.ok());
  FaultPlan plan;
  plan.At(FaultSite::kAhbError, 1);
  engine_.set_fault_plan(&plan);
  const TransferResult failed = engine_.LoadPage(
      /*asid=*/0, user_, addr.value(), dp_, 0, 2048, /*reload=*/true);
  EXPECT_TRUE(failed.bus_error);
  EXPECT_EQ(failed.bytes, 0u);
  EXPECT_EQ(failed.time, engine_.PriceReload(2048));
  EXPECT_EQ(engine_.total_bytes_loaded(), 0u);
  const TransferResult retried = engine_.LoadPage(
      /*asid=*/0, user_, addr.value(), dp_, 0, 2048, /*reload=*/true);
  EXPECT_FALSE(retried.bus_error);
  EXPECT_EQ(engine_.total_time(), 2 * engine_.PriceReload(2048));
}

TEST_F(TransferEngineTest, AccumulatesTotalTime) {
  auto addr = user_.Allocate(512);
  ASSERT_TRUE(addr.ok());
  const Picoseconds t0 = engine_.total_time();
  engine_.LoadPage(/*asid=*/0, user_, addr.value(), dp_, 0, 512);
  engine_.StorePage(/*asid=*/0, dp_, 0, user_, addr.value(), 512);
  EXPECT_EQ(engine_.total_time() - t0, 2 * engine_.PriceTransfer(512));
}

TEST_F(TransferEngineTest, ParameterWordsTakeTheCpuPathUnderTheIommu) {
  // The parameter words come from the system call, not from a user page
  // the IOMMU maps: every mode prices them as one page transfer, except
  // kIommu, whose CPU copies them at the double-copy price.
  const Picoseconds double_copy = engine_.PriceTransfer(64);
  for (const CopyMode mode : {CopyMode::kDoubleCopy, CopyMode::kSingleCopy}) {
    engine_.set_mode(mode);
    EXPECT_EQ(engine_.PriceParams(64), engine_.PriceTransfer(64))
        << ToString(mode);
  }
  engine_.set_mode(CopyMode::kIommu);
  EXPECT_EQ(engine_.PriceParams(64), double_copy);
  EXPECT_EQ(engine_.PriceTransfer(64), engine_.PriceDirect(64));
}

}  // namespace
}  // namespace vcop::mem
