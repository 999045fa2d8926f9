#include "runtime/drivers.h"

#include "cp/adpcm_cp.h"
#include "cp/adpcm_enc_cp.h"
#include "cp/conv_cp.h"
#include "cp/gather_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "cp/vecadd_cp.h"

namespace vcop::runtime {
namespace {

/// Loads `bitstream` unless a design with the same name already
/// occupies the PLD (reconfiguring on every call would be wasteful and
/// is not what an application does).
Status EnsureLoaded(FpgaSystem& sys, const hw::Bitstream& bitstream) {
  if (const os::Design* loaded = sys.kernel().loaded_design()) {
    if (loaded->name == bitstream.name) return Status::Ok();
    VCOP_RETURN_IF_ERROR(sys.Unload());
  }
  return sys.Load(bitstream);
}

JobObject In(hw::ObjectId id, u32 elem_width, std::vector<u8> bytes) {
  return {id, elem_width, os::Direction::kIn, std::move(bytes)};
}

JobObject Out(hw::ObjectId id, u32 elem_width, usize bytes) {
  return {id, elem_width, os::Direction::kOut, std::vector<u8>(bytes)};
}

/// RunJob with the output copied out as T elements.
template <typename T>
Result<VimRun<T>> RunTyped(FpgaSystem& sys, const FpgaJob& job) {
  Result<VimRun<u8>> run = RunJob(sys, job);
  if (!run.ok()) return run.status();
  const std::vector<u8>& bytes = run.value().output;
  std::vector<T> output(bytes.size() / sizeof(T));
  if (!output.empty()) std::memcpy(output.data(), bytes.data(), bytes.size());
  return VimRun<T>{std::move(output), run.value().report};
}

Status CheckIdeaInput(std::span<const u8> input) {
  if (input.empty() || input.size() % apps::kIdeaBlockBytes != 0) {
    return InvalidArgumentError(
        "IDEA input must be a nonzero multiple of 8 bytes");
  }
  return Status::Ok();
}

}  // namespace

FpgaJob AdpcmDecodeJob(std::span<const u8> input) {
  using Cp = cp::AdpcmDecodeCoprocessor;
  const u32 n = static_cast<u32>(input.size());
  // FPGA_EXECUTE(length, valprev, index): fresh predictor state.
  return {cp::AdpcmDecodeBitstream(),
          {In(Cp::kObjIn, 1, AsBytes(input)),
           Out(Cp::kObjOut, 2, 4 * usize{n})},
          {n, 0u, 0u},
          Cp::kObjOut};
}

FpgaJob AdpcmEncodeJob(std::span<const i16> pcm) {
  using Cp = cp::AdpcmEncodeCoprocessor;
  const u32 n = static_cast<u32>(pcm.size());
  return {cp::AdpcmEncodeBitstream(),
          {In(Cp::kObjIn, 2, AsBytes(pcm)), Out(Cp::kObjOut, 1, n / 2)},
          {n, 0u, 0u},
          Cp::kObjOut};
}

FpgaJob IdeaJob(const apps::IdeaSubkeys& subkeys, std::span<const u8> input,
                u32 mode, const apps::IdeaIv& iv) {
  using Cp = cp::IdeaCoprocessor;
  u32 iv_lo = 0, iv_hi = 0;
  for (u32 b = 0; b < 4; ++b) {
    iv_lo |= static_cast<u32>(iv[b]) << (8 * b);
    iv_hi |= static_cast<u32>(iv[4 + b]) << (8 * b);
  }
  const u32 blocks = static_cast<u32>(input.size() / apps::kIdeaBlockBytes);
  // The core addresses the byte streams as 32-bit elements.
  return {cp::IdeaBitstream(),
          {In(Cp::kObjIn, 4, AsBytes(input)),
           Out(Cp::kObjOut, 4, input.size()),
           In(Cp::kObjKey, 2, AsBytes(std::span<const u16>(subkeys)))},
          {blocks, mode, iv_lo, iv_hi},
          Cp::kObjOut};
}

FpgaJob VecAddJob(std::span<const u32> a, std::span<const u32> b) {
  using Cp = cp::VecAddCoprocessor;
  return {cp::VecAddBitstream(),
          {In(Cp::kObjA, 4, AsBytes(a)), In(Cp::kObjB, 4, AsBytes(b)),
           Out(Cp::kObjC, 4, a.size_bytes())},
          {static_cast<u32>(a.size())},
          Cp::kObjC};
}

FpgaJob GatherJob(std::span<const u32> in, std::span<const u32> perm) {
  using Cp = cp::GatherCoprocessor;
  return {cp::GatherBitstream(),
          {In(Cp::kObjIn, 4, AsBytes(in)), In(Cp::kObjPerm, 4, AsBytes(perm)),
           Out(Cp::kObjOut, 4, perm.size_bytes())},
          {static_cast<u32>(perm.size())},
          Cp::kObjOut};
}

FpgaJob Conv3x3Job(std::span<const u8> image, u32 width, u32 height,
                   const apps::Conv3x3Kernel& kernel, u32 shift) {
  using Cp = cp::Conv3x3Coprocessor;
  std::vector<u32> coeffs(kernel.size());
  for (usize i = 0; i < kernel.size(); ++i) {
    coeffs[i] = static_cast<u32>(kernel[i]);
  }
  return {cp::Conv3x3Bitstream(),
          {In(Cp::kObjSrc, 1, AsBytes(image)),
           Out(Cp::kObjDst, 1, image.size()),
           In(Cp::kObjKernel, 4, AsBytes(std::span<const u32>(coeffs)))},
          {width, height, shift},
          Cp::kObjDst};
}

Result<VimRun<u8>> RunJob(FpgaSystem& sys, const FpgaJob& job) {
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, job.bitstream));
  HostBuffer<u8> output;
  for (const JobObject& o : job.objects) {
    Result<HostBuffer<u8>> buffer =
        sys.Allocate<u8>(static_cast<u32>(o.bytes.size()));
    if (!buffer.ok()) return buffer.status();
    buffer.value().Fill(o.bytes);
    VCOP_RETURN_IF_ERROR(
        sys.Remap(o.id, buffer.value(), o.elem_width, o.direction));
    if (o.id == job.output) output = buffer.value();
  }
  Result<os::ExecutionReport> report = sys.Execute(job.params);
  if (!report.ok()) return report.status();
  return VimRun<u8>{output.ToVector(), report.value()};
}

Result<VimRun<i16>> RunAdpcmVim(FpgaSystem& sys, std::span<const u8> input) {
  if (input.empty()) return InvalidArgumentError("empty ADPCM input");
  return RunTyped<i16>(sys, AdpcmDecodeJob(input));
}

Result<VimRun<u8>> RunAdpcmEncodeVim(FpgaSystem& sys,
                                     std::span<const i16> pcm) {
  if (pcm.empty() || pcm.size() % 2 != 0) {
    return InvalidArgumentError(
        "ADPCM encodes a nonzero, even number of samples");
  }
  return RunJob(sys, AdpcmEncodeJob(pcm));
}

Result<VimRun<u8>> RunIdeaVim(FpgaSystem& sys,
                              const apps::IdeaSubkeys& subkeys,
                              std::span<const u8> input) {
  VCOP_RETURN_IF_ERROR(CheckIdeaInput(input));
  return RunJob(sys, IdeaJob(subkeys, input));
}

Result<VimRun<u8>> RunIdeaCbcVim(FpgaSystem& sys,
                                 const apps::IdeaSubkeys& subkeys,
                                 const apps::IdeaIv& iv, bool encrypt,
                                 std::span<const u8> input) {
  VCOP_RETURN_IF_ERROR(CheckIdeaInput(input));
  return RunJob(sys, IdeaJob(subkeys, input,
                             encrypt ? cp::IdeaCoprocessor::kModeCbcEncrypt
                                     : cp::IdeaCoprocessor::kModeCbcDecrypt,
                             iv));
}

Result<VimRun<u32>> RunVecAddVim(FpgaSystem& sys, std::span<const u32> a,
                                 std::span<const u32> b) {
  if (a.size() != b.size() || a.empty()) {
    return InvalidArgumentError("vecadd needs two equal nonzero vectors");
  }
  return RunTyped<u32>(sys, VecAddJob(a, b));
}

Result<VimRun<u32>> RunGatherVim(FpgaSystem& sys, std::span<const u32> in,
                                 std::span<const u32> perm) {
  if (in.empty() || perm.empty()) {
    return InvalidArgumentError("gather needs nonempty in and perm");
  }
  return RunTyped<u32>(sys, GatherJob(in, perm));
}

Result<VimRun<u8>> RunConv3x3Vim(FpgaSystem& sys,
                                 std::span<const u8> image, u32 width,
                                 u32 height,
                                 const apps::Conv3x3Kernel& kernel,
                                 u32 shift) {
  if (width < 3 || height < 3 ||
      image.size() != static_cast<usize>(width) * height) {
    return InvalidArgumentError("bad image geometry");
  }
  return RunJob(sys, Conv3x3Job(image, width, height, kernel, shift));
}

Result<ManualIdeaRun> RunIdeaManual(const os::CostModel& costs,
                                    u32 dp_ram_bytes,
                                    const apps::IdeaSubkeys& subkeys,
                                    std::span<const u8> input) {
  if (input.empty() || input.size() % apps::kIdeaBlockBytes != 0) {
    return InvalidArgumentError(
        "IDEA input must be a nonzero multiple of 8 bytes");
  }
  std::vector<u8> key_bytes(subkeys.size() * 2);
  for (usize i = 0; i < subkeys.size(); ++i) {
    key_bytes[2 * i] = static_cast<u8>(subkeys[i]);
    key_bytes[2 * i + 1] = static_cast<u8>(subkeys[i] >> 8);
  }
  std::vector<u8> output(input.size());

  ManualObject in_obj;
  in_obj.id = cp::IdeaCoprocessor::kObjIn;
  in_obj.elem_width = 4;
  in_obj.size_bytes = static_cast<u32>(input.size());
  in_obj.in = input;

  ManualObject out_obj;
  out_obj.id = cp::IdeaCoprocessor::kObjOut;
  out_obj.elem_width = 4;
  out_obj.size_bytes = static_cast<u32>(output.size());
  out_obj.out = output;

  ManualObject key_obj;
  key_obj.id = cp::IdeaCoprocessor::kObjKey;
  key_obj.elem_width = 2;
  key_obj.size_bytes = static_cast<u32>(key_bytes.size());
  // A hand-built coprocessor keeps its key schedule in configuration
  // registers, leaving the whole dual-port RAM for data — which is how
  // the paper's normal coprocessor handles an 8 KB dataset (in + out
  // fill the 16 KB exactly).
  key_obj.in_registers = true;
  key_obj.in = key_bytes;

  const ManualObject objects[] = {in_obj, out_obj, key_obj};
  const u32 blocks =
      static_cast<u32>(input.size() / apps::kIdeaBlockBytes);
  const u32 params[] = {blocks};

  ManualRunner runner(costs, dp_ram_bytes);
  Result<ManualRunResult> result =
      runner.Run(cp::IdeaBitstream(), objects, params);
  if (!result.ok()) return result.status();
  return ManualIdeaRun{std::move(output), result.value()};
}

}  // namespace vcop::runtime
