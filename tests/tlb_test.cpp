// Unit tests for the IMU's TLB (CAM behaviour, dirty/accessed bits,
// statistics) and the AR/SR register packing helpers.
#include <gtest/gtest.h>

#include "hw/imu_regs.h"
#include "hw/tlb.h"
#include "os/address_space.h"

namespace vcop::hw {
namespace {

TEST(TlbTest, MissOnEmpty) {
  Tlb tlb(8);
  EXPECT_FALSE(tlb.Lookup(0, 0).has_value());
  EXPECT_EQ(tlb.stats().lookups, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
  EXPECT_EQ(tlb.stats().hits, 0u);
}

TEST(TlbTest, InstallThenHit) {
  Tlb tlb(8);
  tlb.Install(3, /*object=*/2, /*vpage=*/5, /*frame=*/7);
  const auto idx = tlb.Lookup(2, 5);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 3u);
  EXPECT_EQ(tlb.entry(3).frame, 7u);
  EXPECT_EQ(tlb.stats().hits, 1u);
}

TEST(TlbTest, TagIncludesObjectAndPage) {
  Tlb tlb(8);
  tlb.Install(0, 2, 5, 7);
  EXPECT_FALSE(tlb.Lookup(2, 6).has_value());  // same object, other page
  EXPECT_FALSE(tlb.Lookup(3, 5).has_value());  // other object, same page
  EXPECT_TRUE(tlb.Lookup(2, 5).has_value());
}

TEST(TlbTest, ProbeDoesNotTouchStats) {
  Tlb tlb(4);
  tlb.Install(0, 1, 1, 1);
  EXPECT_TRUE(tlb.Probe(1, 1).has_value());
  EXPECT_FALSE(tlb.Probe(1, 2).has_value());
  EXPECT_EQ(tlb.stats().lookups, 0u);
}

TEST(TlbTest, InvalidateReturnsOldEntry) {
  Tlb tlb(4);
  tlb.Install(1, 3, 9, 2);
  tlb.MarkDirty(1);
  const TlbEntry old = tlb.Invalidate(1);
  EXPECT_TRUE(old.valid);
  EXPECT_TRUE(old.dirty);
  EXPECT_EQ(old.object, 3u);
  EXPECT_EQ(old.vpage, 9u);
  EXPECT_FALSE(tlb.entry(1).valid);
  EXPECT_FALSE(tlb.Lookup(3, 9).has_value());
}

TEST(TlbTest, InstallClearsDirty) {
  Tlb tlb(4);
  tlb.Install(0, 1, 1, 1);
  tlb.MarkDirty(0);
  tlb.Install(0, 1, 2, 1);
  EXPECT_FALSE(tlb.entry(0).dirty);
}

TEST(TlbTest, AccessedBitsHarvest) {
  Tlb tlb(4);
  tlb.Install(0, 1, 0, 5);
  tlb.Install(1, 1, 1, 6);
  tlb.Install(2, 1, 2, 7);
  // Touch entries 0 and 2 via lookups.
  ASSERT_TRUE(tlb.Lookup(1, 0).has_value());
  ASSERT_TRUE(tlb.Lookup(1, 2).has_value());
  std::vector<mem::FrameId> touched;
  auto collect = [&touched](mem::FrameId f) { touched.push_back(f); };
  tlb.HarvestAccessed(collect);
  EXPECT_EQ(touched, (std::vector<mem::FrameId>{5, 7}));
  // Bits cleared: a second harvest visits nothing.
  touched.clear();
  tlb.HarvestAccessed(collect);
  EXPECT_TRUE(touched.empty());
}

TEST(TlbTest, FindByFrameAndFindFree) {
  Tlb tlb(3);
  EXPECT_EQ(tlb.FindFree(), 0u);
  tlb.Install(0, 1, 0, 9);
  tlb.Install(1, 1, 1, 4);
  EXPECT_EQ(tlb.FindByFrame(4), 1u);
  EXPECT_FALSE(tlb.FindByFrame(5).has_value());
  EXPECT_EQ(tlb.FindFree(), 2u);
  tlb.Install(2, 1, 2, 5);
  EXPECT_FALSE(tlb.FindFree().has_value());
}

TEST(TlbTest, InvalidateAllAndResetStats) {
  Tlb tlb(4);
  tlb.Install(0, 1, 0, 0);
  tlb.Lookup(1, 0);
  tlb.InvalidateAll();
  tlb.ResetStats();
  EXPECT_FALSE(tlb.Probe(1, 0).has_value());
  EXPECT_EQ(tlb.stats().lookups, 0u);
}

// ----- ASID tagging -----

TEST(TlbTest, AsidTagsDisambiguateIdenticalVirtualPages) {
  Tlb tlb(8);
  // Two tenants map the same (object, vpage) to different frames.
  tlb.Install(0, /*object=*/2, /*vpage=*/5, /*frame=*/1, /*asid=*/1);
  tlb.Install(1, /*object=*/2, /*vpage=*/5, /*frame=*/6, /*asid=*/2);
  const auto t1 = tlb.Lookup(2, 5, /*asid=*/1);
  const auto t2 = tlb.Lookup(2, 5, /*asid=*/2);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(tlb.entry(*t1).frame, 1u);
  EXPECT_EQ(tlb.entry(*t2).frame, 6u);
  // A third tenant sees neither.
  EXPECT_FALSE(tlb.Lookup(2, 5, /*asid=*/3).has_value());
}

TEST(TlbTest, InvalidateAsidOnlyDropsMatchingEntries) {
  Tlb tlb(8);
  tlb.Install(0, 1, 0, 0, /*asid=*/1);
  tlb.Install(1, 1, 1, 1, /*asid=*/1);
  tlb.Install(2, 1, 0, 2, /*asid=*/2);
  const u64 generation = tlb.generation();
  EXPECT_EQ(tlb.InvalidateAsid(1), 2u);
  EXPECT_FALSE(tlb.Probe(1, 0, 1).has_value());
  EXPECT_FALSE(tlb.Probe(1, 1, 1).has_value());
  EXPECT_TRUE(tlb.Probe(1, 0, 2).has_value());  // other tenant survives
  EXPECT_GT(tlb.generation(), generation);      // cached lookups invalid
  // Nothing left under ASID 1: a repeat is a no-op (generation stable).
  const u64 after = tlb.generation();
  EXPECT_EQ(tlb.InvalidateAsid(1), 0u);
  EXPECT_EQ(tlb.generation(), after);
}

TEST(TlbTest, DefaultAsidZeroKeepsLegacyCallsitesWorking) {
  Tlb tlb(4);
  tlb.Install(0, 3, 7, 2);                      // no ASID argument
  EXPECT_TRUE(tlb.Lookup(3, 7).has_value());    // found under default 0
  EXPECT_EQ(tlb.entry(0).asid, 0u);
  EXPECT_FALSE(tlb.Lookup(3, 7, /*asid=*/1).has_value());
  EXPECT_EQ(tlb.InvalidateAsid(0), 1u);
  EXPECT_FALSE(tlb.Probe(3, 7).has_value());
}

// ----- ASID allocator generation rollover (regression) -----

// After 2^N allocations the allocator's cursor wraps and hands a tag
// out again; TLB entries installed under its previous owner could still
// be live. The allocator must detect the wrap, bump its generation and
// fire the rollover hook (vcopd wires it to a full shared-TLB flush).
TEST(AsidRolloverTest, WrapAroundFiresHookBeforeReusingTags) {
  os::AsidAllocator allocator(4);  // tags {0,1,2,3}, 0 reserved
  u32 rollovers = 0;
  allocator.set_rollover_hook([&rollovers] { ++rollovers; });
  EXPECT_EQ(allocator.Allocate().value(), 1u);
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  EXPECT_EQ(allocator.Allocate().value(), 3u);
  EXPECT_EQ(allocator.generation(), 0u);
  EXPECT_EQ(rollovers, 0u);

  // Regression: the cursor sits past the top after the last tag was
  // handed out. Reallocating a freed tag is a new pass over the tag
  // space and must fire the hook — before the fix the eager cursor
  // modulo hid the crossing and the recycled tag aliased stale entries.
  allocator.Release(1);
  EXPECT_EQ(allocator.Allocate().value(), 1u);
  EXPECT_EQ(allocator.generation(), 1u);
  EXPECT_EQ(rollovers, 1u);

  // Reuse within the same pass (no crossing) stays silent.
  allocator.Release(3);
  EXPECT_EQ(allocator.Allocate().value(), 3u);
  EXPECT_EQ(allocator.generation(), 1u);
  EXPECT_EQ(rollovers, 1u);

  // Every further full trip fires exactly once more.
  allocator.Release(2);
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  EXPECT_EQ(allocator.generation(), 2u);
  EXPECT_EQ(rollovers, 2u);
}

TEST(AsidRolloverTest, HookIsOptional) {
  os::AsidAllocator allocator(3);
  EXPECT_EQ(allocator.Allocate().value(), 1u);
  EXPECT_EQ(allocator.Allocate().value(), 2u);
  allocator.Release(1);
  EXPECT_EQ(allocator.Allocate().value(), 1u);  // wraps, no hook: no crash
  EXPECT_EQ(allocator.generation(), 1u);
}

TEST(TlbDeathTest, MarkDirtyOnInvalidEntryAborts) {
  Tlb tlb(2);
  EXPECT_DEATH(tlb.MarkDirty(0), "invalid entry");
}

// ----- AR packing -----

TEST(ImuRegsTest, ArPackRoundTrip) {
  const u32 ar = PackAr(/*object=*/12, /*index=*/0x0ABCDEF);
  EXPECT_EQ(ArObject(ar), 12u);
  EXPECT_EQ(ArIndex(ar), 0x0ABCDEFu);
}

TEST(ImuRegsTest, IndexTruncatedTo28Bits) {
  const u32 ar = PackAr(1, 0xFFFFFFFF);
  EXPECT_EQ(ArIndex(ar), 0x0FFFFFFFu);
  EXPECT_EQ(ArObject(ar), 1u);
}

TEST(ImuRegsTest, ParamObjectIsReservedTopId) {
  EXPECT_EQ(kParamObject, kMaxObjects - 1);
}

}  // namespace
}  // namespace vcop::hw
