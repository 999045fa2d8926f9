// Each application's FPGA job, described once: the contract of §3.1
// that the hardware and software designers agree on. One FPGA_LOAD of
// the design, one FPGA_MAP_OBJECT per object (id, element width,
// direction hint) and one FPGA_EXECUTE with the scalar parameters.
//
// One builder per application fills an FpgaJob from the caller's
// inputs, and RunJob runs any job end to end. The typed drivers below
// (RunAdpcmVim, ...) are a builder plus RunJob, shared by the examples,
// the integration tests and the bench binaries; the bench harness
// (bench/common.h) stages the same descriptions. The software
// baselines live in apps/sw_model.h; the manual (no-VIM) IDEA baseline
// is RunIdeaManual below.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "apps/conv2d.h"
#include "apps/idea.h"
#include "base/status.h"
#include "cp/idea_cp.h"
#include "os/kernel.h"
#include "runtime/fpga_api.h"
#include "runtime/manual_runtime.h"

namespace vcop::runtime {

/// One object of a job: its FPGA_MAP_OBJECT arguments and its initial
/// bytes (zeros for the output).
struct JobObject {
  hw::ObjectId id = 0;
  u32 elem_width = 1;
  os::Direction direction = os::Direction::kIn;
  std::vector<u8> bytes;
};

/// One application's FPGA job.
struct FpgaJob {
  hw::Bitstream bitstream;
  /// Allocation and mapping order. The order fixes the user addresses,
  /// and the IOMMU's IO-TLB keys on those.
  std::vector<JobObject> objects;
  std::vector<u32> params;  // FPGA_EXECUTE parameters
  hw::ObjectId output = 0;  // the object the result is read from
};

template <typename T>
std::vector<u8> AsBytes(std::span<const T> values) {
  std::vector<u8> bytes(values.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

/// adpcmdecode of `input` from a fresh predictor state.
FpgaJob AdpcmDecodeJob(std::span<const u8> input);

/// adpcmencode of `pcm` (an even sample count).
FpgaJob AdpcmEncodeJob(std::span<const i16> pcm);

/// IDEA over `input` (a multiple of 8 bytes) under `subkeys` in `mode`
/// (cp::IdeaCoprocessor::kModeEcb, kModeCbcEncrypt or kModeCbcDecrypt).
/// The CBC chaining register lives in the core; `iv` rides in the
/// scalar parameters.
FpgaJob IdeaJob(const apps::IdeaSubkeys& subkeys, std::span<const u8> input,
                u32 mode = cp::IdeaCoprocessor::kModeEcb,
                const apps::IdeaIv& iv = {});

/// c = a + b element-wise.
FpgaJob VecAddJob(std::span<const u32> a, std::span<const u32> b);

/// out[i] = in[perm[i]].
FpgaJob GatherJob(std::span<const u32> in, std::span<const u32> perm);

/// A width x height u8 image convolved with a 3x3 kernel.
FpgaJob Conv3x3Job(std::span<const u8> image, u32 width, u32 height,
                   const apps::Conv3x3Kernel& kernel, u32 shift);

/// Output of a VIM-based run: the decoded/encrypted data plus timing.
template <typename T>
struct VimRun {
  std::vector<T> output;
  os::ExecutionReport report;
};

/// Runs `job`: FPGA_LOADs its design unless that design already
/// occupies the PLD, allocates, fills and (re)maps each object in
/// order, then FPGA_EXECUTEs. Returns the output object's bytes and the
/// report, or the failing Status.
Result<VimRun<u8>> RunJob(FpgaSystem& sys, const FpgaJob& job);

/// Decodes `input` on the ADPCM coprocessor through the VIM.
/// Loads the adpcmdecode bit-stream if it is not the current design.
Result<VimRun<i16>> RunAdpcmVim(FpgaSystem& sys, std::span<const u8> input);

/// Encodes `pcm` (even sample count) on the ADPCM encoder coprocessor.
Result<VimRun<u8>> RunAdpcmEncodeVim(FpgaSystem& sys,
                                     std::span<const i16> pcm);

/// Encrypts `input` (multiple of 8 bytes) on the IDEA coprocessor
/// through the VIM under `subkeys` (ECB).
Result<VimRun<u8>> RunIdeaVim(FpgaSystem& sys,
                              const apps::IdeaSubkeys& subkeys,
                              std::span<const u8> input);

/// CBC on the IDEA coprocessor. Pass the encryption schedule with
/// `encrypt`=true, the inverted schedule with false.
Result<VimRun<u8>> RunIdeaCbcVim(FpgaSystem& sys,
                                 const apps::IdeaSubkeys& subkeys,
                                 const apps::IdeaIv& iv, bool encrypt,
                                 std::span<const u8> input);

/// Adds `a` and `b` element-wise on the vecadd coprocessor.
Result<VimRun<u32>> RunVecAddVim(FpgaSystem& sys, std::span<const u32> a,
                                 std::span<const u32> b);

/// Computes out[i] = in[perm[i]] on the gather coprocessor. Every
/// perm[i] must be < in.size(); perm.size() elements are produced.
Result<VimRun<u32>> RunGatherVim(FpgaSystem& sys, std::span<const u32> in,
                                 std::span<const u32> perm);

/// Convolves a width x height u8 image with a 3x3 kernel on the
/// convolution coprocessor (border copied through).
Result<VimRun<u8>> RunConv3x3Vim(FpgaSystem& sys,
                                 std::span<const u8> image, u32 width,
                                 u32 height,
                                 const apps::Conv3x3Kernel& kernel,
                                 u32 shift);

/// The "normal coprocessor" IDEA baseline (§4.1 / Figure 9): user-
/// managed staging at fixed DP-RAM offsets, whole dataset at once.
/// Fails with RESOURCE_EXHAUSTED when input+output+key exceed the
/// interface memory.
struct ManualIdeaRun {
  std::vector<u8> output;
  ManualRunResult result;
};
Result<ManualIdeaRun> RunIdeaManual(const os::CostModel& costs,
                                    u32 dp_ram_bytes,
                                    const apps::IdeaSubkeys& subkeys,
                                    std::span<const u8> input);

}  // namespace vcop::runtime
