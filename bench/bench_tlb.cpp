// E21 — flexible memory: per-object page sizes (DESIGN.md §14).
// Writes BENCH_tlb.json.
//
// Runs conv2d, IDEA, and adpcm on the single 8-entry CAM under two
// interface-memory configurations:
//
//   cam8      2 KB pages                             (the seed platform)
//   cam8+sp   4 KB superpages on the streaming objects (the gated config)
//
// Gates:
//
//   1. byte-exact outputs: every configuration must reproduce the
//      software reference bit-for-bit — page geometry changes *when*
//      translations are serviced, never *which* bytes the applications
//      produce;
//   2. conv2d faults under cam8+sp strictly below the cam8 baseline;
//   3. IDEA faults under cam8+sp strictly below the cam8 baseline;
//   4. defaults are inert: the Figure-7 VCD and the conv2d Chrome
//      trace must come out byte-identical whether the per-object page
//      sizes are at their defaults or spelled as granule-sized
//      overrides. (Byte-identity against the *seed* artifacts is pinned
//      separately by the trace_artifact_goldens test.)
#include "bench/common.h"
#include "hw/imu.h"

namespace vcop {
namespace {

using bench::Cmp;
using runtime::Epxa1Config;

constexpr u32 kSuperPageBytes = 4096;

/// The three applications, each run under cam8 and cam8+sp. `sp_ids`
/// selects which objects take the 4 KB superpage — per-object sizing is
/// the whole point: the purely-streaming in/out buffers of IDEA and
/// adpcm both take it, while conv2d's strided three-row source window
/// leaves only the source upgraded. Superpaging the destination too is
/// 2.9% slower on the 96x85 image: 6 faults, 2 evictions and 5.462 ms
/// against the source alone's 7 faults, 1 eviction and 5.309 ms (2 KB
/// pages: 9 faults, 1 eviction, 5.329 ms).
const struct AppRow {
  const char* label;
  bench::App app;
  u32 bytes;
  u32 conv_width;
  std::vector<u32> sp_ids;
} kApps[] = {
    {"conv2d", bench::App::kConv, 96 * 85, 96, {0}},
    {"IDEA", bench::App::kIdea, 32768, bench::kConvWidth, {0, 1}},
    {"adpcmdecode", bench::App::kAdpcm, 32768, bench::kConvWidth, {0, 1}},
};

void RunApp(const AppRow& a, bench::Values& v) {
  const bench::Job job =
      bench::MakeJob(a.app, a.bytes, bench::kWorkloadSeed, a.conv_width);
  v.Count("bytes", job.input_bytes);
  for (const bool superpages : {false, true}) {
    os::KernelConfig config = Epxa1Config();
    if (superpages) {
      for (const u32 id : a.sp_ids) {
        config.object_page_bytes[id] = kSuperPageBytes;
      }
    }
    const bench::Point p = bench::RunPoint(config, job);
    const std::string mode = superpages ? "cam8+sp" : "cam8";
    v.Flag(mode + ".outputs_exact", p.exact)
        .Add(os::FieldsOf(p.vim),
             {"vim.faults", "vim.tlb_refills", "vim.evictions", "total_ps"},
             mode);
  }
}

int Main() {
  std::vector<bench::Row> rows;
  for (const AppRow& a : kApps) {
    rows.push_back({a.label, [&a](bench::Values& v) { RunApp(a, v); }});
  }
  // The platform with its per-object page sizes at their defaults, and
  // spelled as granule-sized overrides: identical geometry.
  rows.push_back({"defaults", [](bench::Values& v) {
                    const os::KernelConfig plain = Epxa1Config();
                    os::KernelConfig spelled = plain;
                    for (u32 id = 0; id < hw::kMaxObjects - 1; ++id) {
                      spelled.object_page_bytes[id] = spelled.page_bytes;
                    }
                    v.Flag("fig7_vcd_inert",
                           bench::Fig7Vcd(plain) == bench::Fig7Vcd(spelled))
                        .Flag("conv_trace_inert",
                              bench::ConvChromeTrace(plain) ==
                                  bench::ConvChromeTrace(spelled));
                  }});
  bench::Bench bench("tlb");
  bench.Run(rows);
  return bench.Finish({
      {"", "cam8.outputs_exact", Cmp::kEq, 1},
      {"", "cam8+sp.outputs_exact", Cmp::kEq, 1},
      {"conv2d", "cam8+sp.vim.faults", Cmp::kLt, 0, "", "cam8.vim.faults"},
      {"IDEA", "cam8+sp.vim.faults", Cmp::kLt, 0, "", "cam8.vim.faults"},
      {"defaults", "fig7_vcd_inert", Cmp::kEq, 1},
      {"defaults", "conv_trace_inert", Cmp::kEq, 1},
  });
}

}  // namespace
}  // namespace vcop

int main() { return vcop::Main(); }
