// E10 — google-benchmark microbenchmarks of the substrate itself:
// host-side throughput of the event kernel, the CAM TLB, the dual-port
// RAM model, the ADPCM reference decoder and a full simulated execution.
// These track the cost of *running* the simulator (useful when sweeping
// large design spaces), not modelled time.
#include <benchmark/benchmark.h>

#include <numeric>

#include "apps/adpcm.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "hw/tlb.h"
#include "mem/dp_ram.h"
#include "runtime/config.h"
#include "runtime/drivers.h"
#include "runtime/fpga_api.h"
#include "sim/simulator.h"

namespace vcop {
namespace {

void BM_EventQueueDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    u64 count = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(static_cast<Picoseconds>(i), [&count] { ++count; });
    }
    sim.RunToIdle();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueDispatch);

void BM_ClockDomainTicks(benchmark::State& state) {
  class Spinner : public sim::ClockedModule {
   public:
    explicit Spinner(u64 budget) : budget_(budget) {}
    void OnRisingEdge() override { ++ticks_; }
    bool active() const override { return ticks_ < budget_; }
    u64 ticks_ = 0;

   private:
    u64 budget_;
  };
  const u64 edges = static_cast<u64>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::ClockDomain& clk = sim.AddClockDomain("spin", Frequency::MHz(40));
    Spinner spinner(edges);
    clk.Attach(spinner);
    sim.RunToIdle();
    benchmark::DoNotOptimize(spinner.ticks_);
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ClockDomainTicks)->Arg(1000)->Arg(10000);

void BM_TlbLookup(benchmark::State& state) {
  hw::Tlb tlb(static_cast<u32>(state.range(0)));
  for (u32 i = 0; i < tlb.num_entries(); ++i) {
    tlb.Install(i, static_cast<hw::ObjectId>(i % 3), i, i);
  }
  Rng rng(1);
  u64 hits = 0;
  for (auto _ : state) {
    const u32 i = static_cast<u32>(rng.NextBelow(tlb.num_entries()));
    hits += tlb.Lookup(static_cast<hw::ObjectId>(i % 3), i).has_value();
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup)->Arg(8)->Arg(32);

void BM_DualPortRamWord(benchmark::State& state) {
  mem::DualPortRam ram(16384);
  u32 addr = 0;
  u64 sum = 0;
  for (auto _ : state) {
    ram.WriteWord(mem::DualPortRam::Port::kProcessor, addr, 4, addr);
    sum += ram.ReadWord(mem::DualPortRam::Port::kCoprocessor, addr, 4);
    addr = (addr + 4) & 16383;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DualPortRamWord);

/// The bit-exact reference every adpcm job's output is checked against;
/// items are output samples, so ns/sample is 1e9 / items_per_second.
void BM_AdpcmDecode(benchmark::State& state) {
  const usize bytes = static_cast<usize>(state.range(0));
  const std::vector<u8> input = apps::MakeAdpcmStream(bytes, 1);
  std::vector<i16> output(2 * bytes);
  for (auto _ : state) {
    apps::AdpcmState decoder;
    apps::AdpcmDecode(input, output, decoder);
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * bytes);
}
BENCHMARK(BM_AdpcmDecode)->Arg(512)->Arg(8192);

void BM_FullAdpcmExecution(benchmark::State& state) {
  const usize bytes = static_cast<usize>(state.range(0));
  const std::vector<u8> input = apps::MakeAdpcmStream(bytes, 1);
  for (auto _ : state) {
    runtime::FpgaSystem sys(runtime::Epxa1Config());
    auto run = runtime::RunAdpcmVim(sys, input);
    VCOP_CHECK(run.ok());
    benchmark::DoNotOptimize(run.value().report.total);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_FullAdpcmExecution)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_FullVecAddExecution(benchmark::State& state) {
  const u32 n = static_cast<u32>(state.range(0));
  std::vector<u32> a(n), b(n);
  std::iota(a.begin(), a.end(), 0u);
  std::iota(b.begin(), b.end(), 1u);
  for (auto _ : state) {
    runtime::FpgaSystem sys(runtime::Epxa1Config());
    auto run = runtime::RunVecAddVim(sys, a, b);
    VCOP_CHECK(run.ok());
    benchmark::DoNotOptimize(run.value().report.total);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FullVecAddExecution)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vcop

BENCHMARK_MAIN();
