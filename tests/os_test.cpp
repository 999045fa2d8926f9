// Unit tests for the OS building blocks: object table, replacement
// policies, page manager, process lifecycle and cost model.
#include <gtest/gtest.h>

#include "os/address_space.h"
#include "os/calibration.h"
#include "os/object_table.h"
#include "os/page_manager.h"
#include "os/policy.h"
#include "os/process.h"

namespace vcop::os {
namespace {

// ----- ObjectTable -----

MappedObject MakeObject(hw::ObjectId id, u32 size = 1024, u32 width = 4) {
  MappedObject object;
  object.id = id;
  object.user_addr = 0x1000;
  object.size_bytes = size;
  object.elem_width = width;
  object.direction = Direction::kInOut;
  return object;
}

TEST(ObjectTableTest, MapFindUnmap) {
  ObjectTable table;
  EXPECT_TRUE(table.Map(MakeObject(3)).ok());
  ASSERT_NE(table.Find(3), nullptr);
  EXPECT_EQ(table.Find(3)->size_bytes, 1024u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Unmap(3).ok());
  EXPECT_EQ(table.Find(3), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ObjectTableTest, DuplicateIdRejected) {
  ObjectTable table;
  EXPECT_TRUE(table.Map(MakeObject(1)).ok());
  const Status s = table.Map(MakeObject(1));
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
}

TEST(ObjectTableTest, ReservedParamIdRejected) {
  ObjectTable table;
  const Status s = table.Map(MakeObject(hw::kParamObject));
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(s.message().find("reserved"), std::string::npos);
}

TEST(ObjectTableTest, ValidationOfSizeAndWidth) {
  ObjectTable table;
  EXPECT_FALSE(table.Map(MakeObject(1, /*size=*/0)).ok());
  EXPECT_FALSE(table.Map(MakeObject(1, 1024, /*width=*/3)).ok());
  EXPECT_FALSE(table.Map(MakeObject(1, /*size=*/1022, /*width=*/4)).ok());
  EXPECT_TRUE(table.Map(MakeObject(1, 1022, 2)).ok());
}

TEST(ObjectTableTest, UnmapMissingIsNotFound) {
  ObjectTable table;
  EXPECT_EQ(table.Unmap(5).code(), ErrorCode::kNotFound);
}

TEST(ObjectTableTest, AllReturnsInIdOrder) {
  ObjectTable table;
  EXPECT_TRUE(table.Map(MakeObject(7)).ok());
  EXPECT_TRUE(table.Map(MakeObject(2)).ok());
  EXPECT_TRUE(table.Map(MakeObject(5)).ok());
  const auto all = table.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, 2u);
  EXPECT_EQ(all[1].id, 5u);
  EXPECT_EQ(all[2].id, 7u);
}

TEST(ObjectTableTest, VersionMovesOnEverySuccessfulChange) {
  ObjectTable table;
  u64 version = table.version();
  const auto moved = [&] {
    const bool changed = table.version() != version;
    version = table.version();
    return changed;
  };
  EXPECT_TRUE(table.Map(MakeObject(1)).ok());
  EXPECT_TRUE(moved());
  EXPECT_TRUE(table.Repoint(1, 0x4000).ok());
  EXPECT_TRUE(moved());
  EXPECT_TRUE(table.Unmap(1).ok());
  EXPECT_TRUE(moved());
  EXPECT_TRUE(table.Map(MakeObject(2)).ok());
  table.Clear();
  EXPECT_TRUE(moved());
  // Failed changes and lookups leave it alone.
  EXPECT_FALSE(table.Unmap(3).ok());
  EXPECT_FALSE(table.Repoint(3, 0x4000).ok());
  EXPECT_FALSE(table.Map(MakeObject(0, /*size=*/0)).ok());
  (void)table.Find(1);
  (void)table.All();
  EXPECT_FALSE(moved());
}

// ----- Replacement policies -----
//
// The policies here read only the frame of OnInstalled: the tests put
// page f of object 0 in frame f.

std::vector<bool> AllEvictable(u32 n) { return std::vector<bool>(n, true); }

TEST(PolicyTest, FifoEvictsOldestInstall) {
  auto policy = MakePolicy(PolicyKind::kFifo, 0);
  policy->Reset(4);
  for (mem::FrameId f : {2u, 0u, 3u, 1u}) policy->OnInstalled(f, 0, f);
  EXPECT_EQ(policy->PickVictim(AllEvictable(4)), 2u);
  // Touches do not matter to FIFO.
  policy->OnTouched(2);
  EXPECT_EQ(policy->PickVictim(AllEvictable(4)), 2u);
}

TEST(PolicyTest, FifoReinstallMovesToBack) {
  auto policy = MakePolicy(PolicyKind::kFifo, 0);
  policy->Reset(3);
  policy->OnInstalled(0, 0, 0);
  policy->OnInstalled(1, 0, 1);
  policy->OnInstalled(2, 0, 2);
  policy->OnFreed(0);
  policy->OnInstalled(0, 0, 0);
  EXPECT_EQ(policy->PickVictim(AllEvictable(3)), 1u);
}

TEST(PolicyTest, LruHonoursTouches) {
  auto policy = MakePolicy(PolicyKind::kLru, 0);
  policy->Reset(3);
  policy->OnInstalled(0, 0, 0);
  policy->OnInstalled(1, 0, 1);
  policy->OnInstalled(2, 0, 2);
  policy->OnTouched(0);  // 1 is now least recently used
  EXPECT_EQ(policy->PickVictim(AllEvictable(3)), 1u);
  policy->OnTouched(1);
  EXPECT_EQ(policy->PickVictim(AllEvictable(3)), 2u);
}

TEST(PolicyTest, VictimRespectsEvictableMask) {
  for (const PolicyKind kind : {PolicyKind::kFifo, PolicyKind::kLru,
                                PolicyKind::kRandom, PolicyKind::kWsFifo}) {
    auto policy = MakePolicy(kind, 42);
    policy->Reset(4);
    for (mem::FrameId f = 0; f < 4; ++f) policy->OnInstalled(f, 0, f);
    std::vector<bool> mask = {false, false, true, false};
    EXPECT_EQ(policy->PickVictim(mask), 2u) << ToString(kind);
  }
}

TEST(PolicyTest, RandomIsDeterministicInSeed) {
  auto a = MakePolicy(PolicyKind::kRandom, 7);
  auto b = MakePolicy(PolicyKind::kRandom, 7);
  a->Reset(8);
  b->Reset(8);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a->PickVictim(AllEvictable(8)), b->PickVictim(AllEvictable(8)));
  }
}

TEST(PolicyTest, RandomCoversCandidates) {
  auto policy = MakePolicy(PolicyKind::kRandom, 3);
  policy->Reset(4);
  std::vector<bool> seen(4, false);
  for (int i = 0; i < 100; ++i) seen[policy->PickVictim(AllEvictable(4))] = true;
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 4);
}

TEST(PolicyTest, NamesMatchKinds) {
  EXPECT_EQ(MakePolicy(PolicyKind::kFifo, 0)->name(), "fifo");
  EXPECT_EQ(MakePolicy(PolicyKind::kLru, 0)->name(), "lru");
  EXPECT_EQ(MakePolicy(PolicyKind::kRandom, 0)->name(), "random");
  EXPECT_EQ(MakePolicy(PolicyKind::kWsFifo, 0)->name(), "wsfifo");
}

// ----- Working-set-guarded FIFO -----

/// A wsfifo policy over four frames installed in index order, so frame 0
/// is the FIFO-oldest and frame 3 the youngest.
std::unique_ptr<ReplacementPolicy> WsFifoOverFourFrames() {
  auto policy = MakePolicy(PolicyKind::kWsFifo, 0);
  policy->Reset(4);
  for (mem::FrameId f = 0; f < 4; ++f) policy->OnInstalled(f, 0, f);
  return policy;
}

const std::vector<bool> kNone(4, false);

TEST(WsFifoPolicyTest, SequentialFaultTakesFifoOldestEvenWhenReferenced) {
  auto policy = WsFifoOverFourFrames();
  const std::vector<bool> referenced = {true, true, false, false};
  // The next page, the same page again, and the object's first fault
  // all continue a sequential run.
  for (const std::optional<mem::VirtPage> previous :
       {std::optional<mem::VirtPage>(6), std::optional<mem::VirtPage>(7),
        std::optional<mem::VirtPage>()}) {
    EXPECT_EQ(policy->PickDemandVictim(
                  AllEvictable(4), DemandFault{1, 7, previous, referenced}),
              0u);
  }
}

TEST(WsFifoPolicyTest, NonSequentialFaultSparesReferencedFrames) {
  auto policy = WsFifoOverFourFrames();
  const std::vector<bool> referenced = {true, true, false, false};
  // Backwards and forward jumps both break the run.
  for (const mem::VirtPage previous : {9u, 1u}) {
    EXPECT_EQ(policy->PickDemandVictim(
                  AllEvictable(4), DemandFault{1, 3, previous, referenced}),
              2u);
  }
  // The guard narrows the evictable set; it never widens it.
  EXPECT_EQ(policy->PickDemandVictim({true, true, false, true},
                                     DemandFault{1, 3, 9, referenced}),
            3u);
  // Parameter-page victims stay plain FIFO.
  EXPECT_EQ(policy->PickVictim(AllEvictable(4)), 0u);
}

TEST(WsFifoPolicyTest, FallsBackToFifoWhenEveryFrameIsGuarded) {
  auto policy = WsFifoOverFourFrames();
  const std::vector<bool> all(4, true);
  EXPECT_EQ(policy->PickDemandVictim(AllEvictable(4),
                                     DemandFault{1, 3, 9, all}),
            0u);
  // Referenced frames can guard every evictable candidate.
  EXPECT_EQ(policy->PickDemandVictim(
                {false, true, true, false},
                DemandFault{1, 3, 9, {false, true, true, false}}),
            1u);
}

TEST(WsFifoPolicyTest, RunStateIsPerAddressSpace) {
  // Two tenants map the same object id; each space keeps its own run.
  AddressSpace a(/*pid=*/1, /*asid=*/1);
  AddressSpace b(/*pid=*/2, /*asid=*/2);
  EXPECT_EQ(a.NoteDemandFault(1, 4), std::nullopt);
  EXPECT_EQ(b.NoteDemandFault(1, 20), std::nullopt);  // b's first fault
  const std::optional<mem::VirtPage> a_prev = a.NoteDemandFault(1, 5);
  EXPECT_EQ(a_prev, 4u);  // b's fault on page 20 did not break a's run
  const std::optional<mem::VirtPage> b_prev = b.NoteDemandFault(1, 3);
  EXPECT_EQ(b_prev, 20u);

  auto policy = WsFifoOverFourFrames();
  const std::vector<bool> referenced = {true, false, false, false};
  EXPECT_EQ(policy->PickDemandVictim(
                AllEvictable(4), DemandFault{1, 5, a_prev, referenced}),
            0u);
  EXPECT_EQ(policy->PickDemandVictim(
                AllEvictable(4), DemandFault{1, 3, b_prev, referenced}),
            1u);
}

/// WsFifoOverFourFrames with frames 0 and 1 touched at an earlier
/// harvest: the FIFO order is still 0, 1, 2, 3, the LRU order is 2, 3,
/// 0, 1, and nothing was referenced since the previous fault.
std::unique_ptr<ReplacementPolicy> WsFifoWithLruOrder2301() {
  auto policy = WsFifoOverFourFrames();
  policy->OnTouched(0);
  policy->OnTouched(1);
  return policy;
}

TEST(WsFifoPolicyTest, ReFaultEvictsLeastRecentlyUsedWhereFifoNamesAnother) {
  auto policy = WsFifoWithLruOrder2301();
  // Sequential and run-breaking faults alike: a re-fault takes the LRU
  // frame, any other fault FIFO's oldest.
  for (const mem::VirtPage previous : {6u, 1u}) {
    EXPECT_EQ(policy->PickDemandVictim(
                  AllEvictable(4), DemandFault{1, 7, previous, kNone, true}),
              2u);
    EXPECT_EQ(policy->PickDemandVictim(AllEvictable(4),
                                       DemandFault{1, 7, previous, kNone}),
              0u);
  }
  // Only evictable frames are candidates.
  EXPECT_EQ(policy->PickDemandVictim({true, true, false, true},
                                     DemandFault{1, 7, 6, kNone, true}),
            3u);
  // A freed frame's recency goes with its page.
  policy->OnFreed(2);
  policy->OnInstalled(2, 0, 2);
  EXPECT_EQ(policy->PickDemandVictim(AllEvictable(4),
                                     DemandFault{1, 7, 6, kNone, true}),
            3u);
}

// ----- PageManager -----

TEST(PageManagerTest, InstallFindRelease) {
  PageManager pm(mem::PageGeometry(2048, 4));
  EXPECT_EQ(pm.frames_free(), 4u);
  pm.Install(1, /*object=*/2, /*vpage=*/5, /*pinned=*/false, /*asid=*/0);
  EXPECT_EQ(pm.FindResident(2, 5, /*asid=*/0), 1u);
  EXPECT_FALSE(pm.FindResident(2, 6, /*asid=*/0).has_value());
  EXPECT_EQ(pm.frames_in_use(), 1u);
  const FrameState old = pm.Release(1);
  EXPECT_TRUE(old.in_use);
  EXPECT_EQ(old.vpage, 5u);
  EXPECT_EQ(pm.frames_free(), 4u);
}

TEST(PageManagerTest, FindFreeSkipsUsed) {
  PageManager pm(mem::PageGeometry(1024, 3));
  pm.Install(0, 1, 0, /*pinned=*/false, /*asid=*/0);
  pm.Install(1, 1, 1, /*pinned=*/false, /*asid=*/0);
  EXPECT_EQ(pm.FindFree(), 2u);
  pm.Install(2, 1, 2, /*pinned=*/false, /*asid=*/0);
  EXPECT_FALSE(pm.FindFree().has_value());
}

TEST(PageManagerTest, PinnedFramesNotEvictable) {
  PageManager pm(mem::PageGeometry(1024, 3));
  pm.Install(0, 1, 0, /*pinned=*/true, /*asid=*/0);
  pm.Install(1, 1, 1, /*pinned=*/false, /*asid=*/0);
  const std::vector<bool> mask = pm.EvictableMask();
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_FALSE(mask[2]);  // free, not evictable
  // A pin lasts as long as its page: the frame's next page is evictable.
  pm.Release(0);
  pm.Install(0, 1, 2, /*pinned=*/false, /*asid=*/0);
  EXPECT_TRUE(pm.EvictableMask()[0]);
}

TEST(PageManagerTest, DirtyTracking) {
  PageManager pm(mem::PageGeometry(1024, 2));
  pm.Install(0, 1, 0, /*pinned=*/false, /*asid=*/0);
  EXPECT_FALSE(pm.frame(0).dirty);
  pm.MarkDirty(0);
  EXPECT_TRUE(pm.frame(0).dirty);
  pm.Release(0);
  pm.Install(0, 1, 1, /*pinned=*/false, /*asid=*/0);
  EXPECT_FALSE(pm.frame(0).dirty) << "dirty must not leak across installs";
}

TEST(PageManagerTest, ResetFreesEverything) {
  PageManager pm(mem::PageGeometry(1024, 2));
  pm.Install(0, 1, 0, /*pinned=*/true, /*asid=*/0);
  pm.Install(1, 2, 0, /*pinned=*/false, /*asid=*/0);
  pm.Reset();
  EXPECT_EQ(pm.frames_in_use(), 0u);
  EXPECT_FALSE(pm.FindResident(1, 0, /*asid=*/0).has_value());
}

TEST(PageManagerTest, InUseFramesEnumerates) {
  PageManager pm(mem::PageGeometry(1024, 4));
  pm.Install(3, 1, 0, /*pinned=*/false, /*asid=*/0);
  pm.Install(1, 1, 1, /*pinned=*/false, /*asid=*/0);
  EXPECT_EQ(pm.InUseFrames(), (std::vector<mem::FrameId>{1, 3}));
}

TEST(PageManagerDeathTest, DoubleInstallAborts) {
  PageManager pm(mem::PageGeometry(1024, 2));
  pm.Install(0, 1, 0, /*pinned=*/false, /*asid=*/0);
  EXPECT_DEATH(pm.Install(0, 2, 0, /*pinned=*/false, /*asid=*/0),
               "occupied");
}

TEST(PageManagerDeathTest, DuplicateResidencyAborts) {
  PageManager pm(mem::PageGeometry(1024, 2));
  pm.Install(0, 1, 5, /*pinned=*/false, /*asid=*/0);
  EXPECT_DEATH(pm.Install(1, 1, 5, /*pinned=*/false, /*asid=*/0),
               "already resident");
}

// ----- Process -----

TEST(ProcessTest, SleepWakeAccounting) {
  Process p(1);
  EXPECT_EQ(p.state(), ProcessState::kRunning);
  p.Sleep(1000);
  EXPECT_TRUE(p.sleeping());
  p.Wake(5000);
  EXPECT_EQ(p.state(), ProcessState::kRunning);
  EXPECT_EQ(p.total_slept(), 4000u);
  p.Sleep(6000);
  p.Wake(7000);
  EXPECT_EQ(p.total_slept(), 5000u);
  EXPECT_EQ(p.wakeups(), 2u);
}

TEST(ProcessDeathTest, DoubleSleepAborts) {
  Process p(1);
  p.Sleep(0);
  EXPECT_DEATH(p.Sleep(1), "double sleep");
}

// ----- CostModel -----

TEST(CostModelTest, CyclesConvertOnCpuClock) {
  CostModel costs;
  // 133 cycles at 133 MHz = 1 us.
  EXPECT_EQ(costs.Cycles(133), 1'000'000u);
}

TEST(CostModelTest, FaultServiceShareIsSmall) {
  // Sanity on the calibration: one fault's IMU-management cost must be
  // around 10 us (see calibration.h derivation).
  CostModel costs;
  const Picoseconds per_fault =
      costs.Cycles(costs.interrupt_entry_cycles + costs.fault_decode_cycles +
                   costs.tlb_update_cycles + costs.page_table_cycles);
  EXPECT_GT(ToMicroseconds(per_fault), 5.0);
  EXPECT_LT(ToMicroseconds(per_fault), 20.0);
}

}  // namespace
}  // namespace vcop::os
