// Idle rings store nothing: a freshly built submission or completion
// ring makes no heap allocation, and one drained of every descriptor it
// held keeps no FIFO bytes. A counting global operator new, switched on
// only inside a measured scope, shows it. The replacement applies to the
// whole program, so these tests have a binary of their own.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "base/types.h"
#include "os/ring.h"

namespace {

// Every block carries its size in a header, so a delete can take it off
// the live count. The header keeps the default new alignment.
constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

bool counting = false;
vcop::u64 allocations = 0;
vcop::i64 live_bytes = 0;

/// Counts allocations and live bytes from construction to destruction.
/// Nothing allocated before the scope opened may be freed inside it.
class AllocationScope {
 public:
  AllocationScope() {
    allocations = 0;
    live_bytes = 0;
    counting = true;
  }
  ~AllocationScope() { counting = false; }
  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  vcop::u64 allocations_made() const { return allocations; }
  vcop::i64 bytes_live() const { return live_bytes; }
};

}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(kHeader + size);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  if (counting) {
    ++allocations;
    live_bytes += static_cast<vcop::i64>(size);
  }
  return static_cast<char*>(block) + kHeader;
}

void operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* block = static_cast<char*>(ptr) - kHeader;
  const std::size_t size = *static_cast<std::size_t*>(block);
  if (counting) live_bytes -= static_cast<vcop::i64>(size);
  std::free(block);
}

void operator delete(void* ptr, std::size_t) noexcept { operator delete(ptr); }

namespace vcop::os {
namespace {

constexpr u32 kEntries = 64;

TEST(RingAllocationTest, IdleRingsAllocateNothing) {
  u64 made = 0;
  i64 live = 0;
  {
    AllocationScope scope;
    const SubmissionRing submissions(kEntries);
    const CompletionRing completions(kEntries);
    made = scope.allocations_made();
    live = scope.bytes_live();
  }
  EXPECT_EQ(made, 0u);
  EXPECT_EQ(live, 0);
}

/// Filling both rings and draining them, three times over, returns each
/// to zero live FIFO bytes: the storage follows the descriptors in
/// flight, and the ring built inside the scope keeps none of its own.
TEST(RingAllocationTest, DrainedRingsHoldNoFifoBytes) {
  constexpr int kRounds = 3;
  i64 full[kRounds] = {};
  i64 drained[kRounds] = {};
  bool rings_ok = true;
  {
    AllocationScope scope;
    SubmissionRing submissions(kEntries);
    CompletionRing completions(kEntries);
    for (int round = 0; round < kRounds; ++round) {
      for (u64 cookie = 1; cookie <= kEntries; ++cookie) {
        RingDescriptor descriptor;
        descriptor.cookie = cookie;
        rings_ok &= submissions.Publish(descriptor).ok();
        CompletionDescriptor completion;
        completion.cookie = cookie;
        rings_ok &= completions.Push(completion).ok();
      }
      full[round] = scope.bytes_live();
      for (u64 cookie = 1; cookie <= kEntries; ++cookie) {
        rings_ok &= submissions.Consume().cookie == cookie;
        rings_ok &= completions.Reap().cookie == cookie;
      }
      rings_ok &= submissions.empty() && completions.empty();
      drained[round] = scope.bytes_live();
    }
  }
  EXPECT_TRUE(rings_ok);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    EXPECT_GE(full[round],
              static_cast<i64>(kEntries * (sizeof(RingDescriptor) +
                                           sizeof(CompletionDescriptor))));
    EXPECT_EQ(drained[round], 0);
  }
}

}  // namespace
}  // namespace vcop::os
