// Ablation: how much headroom do §3.3's online policies leave?
//
// Two-pass Belady bound: pass 1 records the coprocessor's page
// reference string through the IMU access probe; pass 2 replays the
// identical workload with an oracle that evicts the page used farthest
// in the future. The reference string is a function of the program
// only, so it is valid across passes (asserted by the oracle itself).
#include <cstdio>
#include <memory>
#include <numeric>

#include "base/rng.h"
#include "bench/common.h"
#include "cp/registry.h"
#include "os/oracle.h"

namespace vcop {
namespace {

struct Workload {
  std::string name;
  std::vector<u32> in;
  std::vector<u32> perm;
};

Workload MakeGather(const char* name, u32 elements, double locality,
                    u64 seed) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  w.in.resize(elements);
  for (u32& v : w.in) v = static_cast<u32>(rng.Next());
  w.perm.resize(elements);
  std::iota(w.perm.begin(), w.perm.end(), 0u);
  // Shuffle a `1 - locality` fraction of positions globally.
  for (u32 i = elements - 1; i > 0; --i) {
    if (rng.NextDouble() < locality) continue;
    std::swap(w.perm[i], w.perm[rng.NextBelow(i + 1)]);
  }
  return w;
}

u64 RunFaults(const Workload& w, os::PolicyKind kind,
              std::shared_ptr<const os::PageRefTrace> replay,
              std::shared_ptr<os::PageRefTrace> record) {
  runtime::FpgaSystem sys(runtime::Epxa1Config());
  VCOP_CHECK(sys.Load(cp::GatherBitstream()).ok());
  os::OraclePolicy* oracle = nullptr;
  if (replay != nullptr) {
    auto policy = std::make_unique<os::OraclePolicy>(replay);
    oracle = policy.get();
    sys.kernel().vim().page_manager().SetPolicy(std::move(policy));
  } else {
    sys.kernel().vim().Configure([&] {
      os::VimConfig config;
      config.policy = kind;
      return config;
    }());
  }
  sys.kernel().imu()->set_page_ref_probe(
      [record, oracle](hw::ObjectId object, mem::VirtPage vpage) {
        if (record != nullptr) record->push_back(os::PageRef{object, vpage});
        if (oracle != nullptr) oracle->OnReference(object, vpage);
      });
  auto run = runtime::RunGatherVim(sys, w.in, w.perm);
  VCOP_CHECK_MSG(run.ok(), run.status().ToString());
  for (u32 i = 0; i < w.in.size(); ++i) {
    VCOP_CHECK(run.value().output[i] == w.in[w.perm[i]]);
  }
  return run.value().report.vim.faults;
}

int Main() {
  std::printf(
      "== Ablation: online policies vs the offline Belady bound ==\n\n");

  Table table({"workload", "fifo", "lru", "random", "belady (optimal)",
               "lru gap to optimal"});
  table.set_title("page faults on the gather kernel, 16 KB DP-RAM");

  for (const Workload& w :
       {MakeGather("gather 24 KB, high locality", 6144, 0.9, 1),
        MakeGather("gather 24 KB, mixed", 6144, 0.5, 2),
        MakeGather("gather 24 KB, random", 6144, 0.0, 3),
        MakeGather("gather 48 KB, random", 12288, 0.0, 4)}) {
    auto trace = std::make_shared<os::PageRefTrace>();
    const u64 fifo = RunFaults(w, os::PolicyKind::kFifo, nullptr, trace);
    const u64 lru = RunFaults(w, os::PolicyKind::kLru, nullptr, nullptr);
    const u64 rnd =
        RunFaults(w, os::PolicyKind::kRandom, nullptr, nullptr);
    const u64 opt = RunFaults(
        w, os::PolicyKind::kFifo,
        std::shared_ptr<const os::PageRefTrace>(trace), nullptr);
    table.AddRow(
        {w.name, StrFormat("%llu", static_cast<unsigned long long>(fifo)),
         StrFormat("%llu", static_cast<unsigned long long>(lru)),
         StrFormat("%llu", static_cast<unsigned long long>(rnd)),
         StrFormat("%llu", static_cast<unsigned long long>(opt)),
         StrFormat("%.2fx", static_cast<double>(lru) /
                                static_cast<double>(opt))});
  }
  table.Print();

  std::printf(
      "\nThe oracle bounds what §3.3's 'development of efficient "
      "allocation\nalgorithms in the OS' could still recover: LRU sits "
      "within a small factor\nof optimal under locality and drifts as "
      "the pattern degenerates to random\n(where no policy can do much — "
      "Belady included).\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
