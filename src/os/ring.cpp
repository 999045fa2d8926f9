#include "os/ring.h"

#include "base/table.h"

namespace vcop::os {

namespace {

/// FNV-1a, folded over the descriptor's payload words.
u32 Fnv1a(const u32* words, usize count, u32 hash = 2166136261u) {
  for (usize i = 0; i < count; ++i) {
    // Byte-at-a-time keeps the hash identical across endianness of the
    // simulated "shared memory" layout.
    for (u32 shift = 0; shift < 32; shift += 8) {
      hash ^= (words[i] >> shift) & 0xffu;
      hash *= 16777619u;
    }
  }
  return hash;
}

u32 CheckRingEntries(u32 entries) {
  VCOP_CHECK_MSG(entries >= 2 && entries <= 32768 &&
                     (entries & (entries - 1)) == 0,
                 "ring size must be a power of two in [2, 32768]");
  return entries;
}

/// Counts a publish. virtio's free-running u16 producer index is the
/// publish count mod 65536, so it wraps at every 65536th.
void CountPublish(RingStats& stats) {
  if (++stats.published % 65536 == 0) ++stats.index_wraps;
}

}  // namespace

u32 RingDescriptor::ComputeChecksum() const {
  u32 hash = 2166136261u;
  const u32 cookie_words[2] = {static_cast<u32>(cookie),
                               static_cast<u32>(cookie >> 32)};
  hash = Fnv1a(cookie_words, 2, hash);
  const u32 head_words[2] = {design, nparams};
  hash = Fnv1a(head_words, 2, hash);
  hash = Fnv1a(params.data(), params.size(), hash);
  for (const u64 ref : object_refs) {
    const u32 ref_words[2] = {static_cast<u32>(ref),
                              static_cast<u32>(ref >> 32)};
    hash = Fnv1a(ref_words, 2, hash);
  }
  hash = Fnv1a(&nrefs, 1, hash);
  return hash;
}

SubmissionRing::SubmissionRing(u32 entries)
    : entries_(CheckRingEntries(entries)) {}

Status SubmissionRing::Publish(RingDescriptor descriptor) {
  if (slots_.size() == entries_) {
    ++stats_.full_rejections;
    return ResourceExhaustedError(
        StrFormat("submission ring full (%u entries) — back off and "
                  "resubmit",
                  entries_));
  }
  descriptor.Seal();
  slots_.push_back(descriptor);
  CountPublish(stats_);
  return Status::Ok();
}

RingDescriptor& SubmissionRing::Head() {
  VCOP_CHECK_MSG(!slots_.empty(), "Head() on an empty submission ring");
  return slots_.front();
}

RingDescriptor SubmissionRing::Consume() {
  RingDescriptor descriptor = Head();
  slots_.pop_front();
  ++stats_.consumed;
  return descriptor;
}

CompletionRing::CompletionRing(u32 entries)
    : entries_(CheckRingEntries(entries)) {}

Status CompletionRing::Push(const CompletionDescriptor& completion) {
  if (slots_.size() == entries_) {
    ++stats_.full_rejections;
    return ResourceExhaustedError(
        StrFormat("completion ring full (%u entries) — tenant stopped "
                  "reaping",
                  entries_));
  }
  slots_.push_back(completion);
  CountPublish(stats_);
  return Status::Ok();
}

CompletionDescriptor CompletionRing::Reap() {
  VCOP_CHECK_MSG(!slots_.empty(), "Reap() on an empty completion ring");
  CompletionDescriptor completion = slots_.front();
  slots_.pop_front();
  ++stats_.consumed;
  return completion;
}

bool CompletionRing::SetSuppressed(bool suppressed) {
  suppressed_ = suppressed;
  return !suppressed && !slots_.empty();
}

}  // namespace vcop::os
