// Reproduces Figure 7: "The coprocessor read access. Data is ready on
// the fourth rising edge of the clock."
//
// Drives a single translated read through the IMU at 40 MHz with the
// waveform tracer attached, prints the ASCII timing diagram of the
// CP_ADDR / CP_ACCESS / CP_TLBHIT / CP_DIN lanes, verifies the 4-edge
// latency, and writes a GTKWave-compatible VCD next to the binary.
#include <cstdio>
#include <fstream>

#include "bench/common.h"

namespace vcop {
namespace {

int Main() {
  std::printf("== Figure 7: coprocessor read access through the IMU ==\n\n");

  sim::Tracer tracer;
  const Picoseconds end = bench::RunFig7(runtime::Epxa1Config(), tracer);

  // Find the read of A[0] after the fault that mapped it: the last
  // rising of cp_access with cp_obj==0 before the final write.
  // Simpler: render the whole run; the interesting window is short.
  const Picoseconds period = 25'000;  // 40 MHz

  // Locate the access that hit in the TLB (tlbhit rising edges).
  // Print the window around the very last read (object 1 = B[0], which
  // translates without a fault because A's fault already ran).
  // We scan tlbhit changes through ValueAt over the run.
  std::printf("%s\n",
              "Full-run CP-port waveform available in fig7_timing.vcd;\n"
              "window below shows one translated read access\n"
              "(one column per half clock period, 40 MHz):\n");

  // The B[0] read is the 2nd data access; find its issue time by
  // scanning cp_access low->high transitions.
  // Signals were registered in Imu::AttachTracer order:
  const sim::SignalId sig_access = 0, sig_tlbhit = 4, sig_din = 5;
  std::vector<Picoseconds> issue_times;
  std::optional<u64> prev;
  for (Picoseconds t = 0; t <= end; t += period) {
    const auto v = tracer.ValueAt(sig_access, t);
    if (v.has_value() && v == 1 && (!prev.has_value() || *prev == 0)) {
      issue_times.push_back(t);
    }
    prev = v;
  }
  // Back-to-back accesses hold CP_ACCESS high, so distinct rising edges
  // appear only after idle gaps (start-up, fault stalls).
  VCOP_CHECK_MSG(!issue_times.empty(), "expected at least one access");

  // Pick an access whose translation hit directly (no fault): the last
  // read (B[0]) after both pages are mapped. Find the one whose tlbhit
  // rises 3 periods after issue.
  Picoseconds window_start = 0;
  Picoseconds consume_time = 0;
  for (const Picoseconds t : issue_times) {
    const auto hit_at_4th = tracer.ValueAt(sig_tlbhit, t + 3 * period);
    const auto hit_before = tracer.ValueAt(sig_tlbhit, t + 2 * period);
    if (hit_at_4th == 1 && hit_before == 0) {
      window_start = t >= period ? t - period : 0;
      consume_time = t + 3 * period;
      break;
    }
  }
  VCOP_CHECK_MSG(consume_time != 0, "no fault-free 4-cycle access found");

  std::printf("%s\n",
              tracer
                  .ToAscii(window_start, consume_time + 2 * period,
                           period / 2)
                  .c_str());

  // The Figure-7 check: data valid on the 4th rising edge after issue.
  const Picoseconds issue = window_start == 0 ? 0 : window_start + period;
  std::printf("issue on rising edge 1 (t+%s), CP_TLBHIT+CP_DIN valid on "
              "rising edge 4 (t+%s):\n4 rising edges inclusive — matches "
              "Figure 7\n",
              FormatDuration(0).c_str(),
              FormatDuration(consume_time - issue).c_str());
  VCOP_CHECK(consume_time - issue == 3 * period);
  const auto din = tracer.ValueAt(sig_din, consume_time);
  VCOP_CHECK(din.has_value());

  std::ofstream vcd("fig7_timing.vcd");
  vcd << tracer.ToVcd();
  std::printf("\nwrote fig7_timing.vcd (%zu signal changes)\n",
              tracer.num_changes());
  std::printf("\nPaper: 'four cycles are needed from the moment when the "
              "coprocessor generates an access\nto the moment when the "
              "data is read or written' — reproduced: PASS\n");
  return 0;
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
