// Virtio-style split rings between tenants and the vcopd service.
//
// The direct Submit/Poll API (os/vcopd.h) makes every submission a
// function call into the daemon — fine for a handful of tenants, but it
// couples the tenants' submission rate to the daemon's service rate.
// Virtio's split-ring layout decouples them: each tenant owns a
// *submission ring* and a *completion ring* in simulated shared memory.
// The tenant publishes fixed-size descriptors and rings a doorbell; the
// service drains a whole batch per kick (doorbell coalescing) and
// pushes completion descriptors back, optionally without notifying
// (interrupt suppression), so a loaded tenant polls cheaply instead of
// taking a wake-up per job.
//
// Layout decisions mirror virtio's, scaled to this platform model:
//
//   * Descriptors are fixed-size POD. A descriptor names a *design id*
//     (registered once with the service — the ring never carries a
//     bit-stream), the scalar parameters, up to four object-table refs,
//     and an opaque completion cookie the tenant uses to match
//     completions to requests. An object ref is (object id << 32 |
//     user virtual address): the service re-points the tenant's mapped
//     object there before the job runs, all refs or none.
//   * A ring's size is virtio's: a power of two that bounds how many
//     descriptors it holds, and a full ring refuses the next one. The
//     storage holds only the descriptors in flight, oldest first, one
//     heap node each, so it never exceeds that bound, and an idle ring
//     (a freshly built one included) allocates nothing. The
//     producer index is virtio's free-running u16, so wrap-around at
//     the 65536 boundary is part of normal operation
//     (RingStats::index_wraps) and is exercised by tests/service_test.
//   * A checksum seals each submission descriptor when it is published.
//     The service validates it at drain time: a descriptor corrupted in
//     shared memory (fault site kDescriptorCorrupt) is completed with a
//     clean error instead of reaching the fabric.
//
// The rings are single-producer/single-consumer by construction (one
// tenant, one daemon), so in the simulated timeline no locking is
// modelled — "shared memory" is the ring object itself.
#pragma once

#include <array>
#include <list>

#include "base/status.h"
#include "base/types.h"
#include "base/units.h"

namespace vcop::os {

/// Scalar parameters a ring descriptor can carry (the widest in-tree
/// core, IDEA, takes 4; the parameter page itself remains the limit for
/// the direct API).
inline constexpr u32 kRingMaxParams = 8;
/// Object re-pointings a descriptor can carry.
inline constexpr u32 kRingMaxObjectRefs = 4;

/// One submission: fixed-size, sealed with a checksum at publish time.
struct RingDescriptor {
  /// Opaque tenant-chosen completion cookie, echoed back verbatim.
  u64 cookie = 0;
  /// Design id from VcopService::RegisterDesign.
  u32 design = 0;
  u32 nparams = 0;
  std::array<u32, kRingMaxParams> params{};
  /// (object id << 32 | user virtual address) per ref.
  std::array<u64, kRingMaxObjectRefs> object_refs{};
  u32 nrefs = 0;
  /// FNV-1a over every field above; see Seal()/IntactAtDrain().
  u32 checksum = 0;

  /// Computes the checksum over the payload fields.
  u32 ComputeChecksum() const;
  /// Seals the descriptor for publication.
  void Seal() { checksum = ComputeChecksum(); }
  /// Whether the payload still matches the seal.
  bool Intact() const { return checksum == ComputeChecksum(); }
};

/// One completion, pushed by the service. Carries the daemon's timing
/// decomposition headline numbers; the full ExecutionReport stays on
/// the daemon side (Vcopd::Poll) — the ring is for steady-state load,
/// not introspection.
struct CompletionDescriptor {
  u64 cookie = 0;
  /// ErrorCode of the job's final status (kOk on success).
  u32 code = 0;
  u32 preemptions = 0;
  Picoseconds submitted_at = 0;  // admission into the daemon
  Picoseconds started_at = 0;    // first dispatch onto the fabric
  Picoseconds finished_at = 0;
};

struct RingStats {
  u64 published = 0;      // producer pushes that succeeded
  u64 full_rejections = 0;  // pushes refused because the ring was full
  u64 consumed = 0;       // consumer pops
  u64 index_wraps = 0;    // free-running index wrapped past 65535
};

/// Tenant-side producer, service-side consumer.
class SubmissionRing {
 public:
  /// `entries` must be a power of two in [2, 32768] (half the u16 index
  /// space, so virtio's indices tell full from empty).
  explicit SubmissionRing(u32 entries);

  /// Publishes a descriptor (sealing it). Full ring: ResourceExhausted
  /// immediately — the edge backpressure signal; never blocks.
  Status Publish(RingDescriptor descriptor);

  bool empty() const { return slots_.empty(); }
  u32 size() const { return static_cast<u32>(slots_.size()); }
  u32 entries() const { return entries_; }

  /// Consumer head, for in-place inspection (and fault injection).
  /// Pre: !empty().
  RingDescriptor& Head();
  /// Consumes the head. Pre: !empty().
  RingDescriptor Consume();

  const RingStats& stats() const { return stats_; }

 private:
  u32 entries_;
  // In flight, oldest first. A list, not a deque: an empty deque still
  // holds a map and a node, and every tenant owns an idle ring.
  std::list<RingDescriptor> slots_;
  RingStats stats_;
};

/// Service-side producer, tenant-side consumer.
class CompletionRing {
 public:
  explicit CompletionRing(u32 entries);

  /// Pushes a completion. A full completion ring means the tenant has
  /// stopped reaping; the push fails and the service holds the
  /// completion (it retries on the next reap).
  Status Push(const CompletionDescriptor& completion);

  bool empty() const { return slots_.empty(); }
  u32 size() const { return static_cast<u32>(slots_.size()); }
  u32 entries() const { return entries_; }

  /// Consumes the oldest completion. Pre: !empty().
  CompletionDescriptor Reap();

  // ----- interrupt suppression (virtio's used-ring flags) -----

  /// While suppressed, the service pushes completions without
  /// notifying. Returns whether completions were already pending at the
  /// moment suppression was lifted — the re-check the tenant must do
  /// before sleeping, because notifications for those were elided.
  bool SetSuppressed(bool suppressed);
  bool suppressed() const { return suppressed_; }

  const RingStats& stats() const { return stats_; }

 private:
  u32 entries_;
  // In flight, oldest first; a list for the same reason as
  // SubmissionRing's.
  std::list<CompletionDescriptor> slots_;
  RingStats stats_;
  bool suppressed_ = false;
};

}  // namespace vcop::os
