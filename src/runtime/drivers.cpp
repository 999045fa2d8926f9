#include "runtime/drivers.h"

#include <tuple>

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

}  // namespace

Result<VimRun<i16>> RunAdpcmVim(FpgaSystem& sys, std::span<const u8> input) {
  if (input.empty()) return InvalidArgumentError("empty ADPCM input");
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::AdpcmDecodeBitstream()));

  Result<HostBuffer<u8>> in =
      sys.Allocate<u8>(static_cast<u32>(input.size()));
  if (!in.ok()) return in.status();
  in.value().Fill(input);
  Result<HostBuffer<i16>> out =
      sys.Allocate<i16>(static_cast<u32>(input.size() * 2));
  if (!out.ok()) return out.status();

  VCOP_RETURN_IF_ERROR(sys.Remap(cp::AdpcmDecodeCoprocessor::kObjIn,
                                 in.value(), os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::AdpcmDecodeCoprocessor::kObjOut,
                                 out.value(), os::Direction::kOut));

  // FPGA_EXECUTE(length, valprev, index) — fresh predictor state.
  Result<os::ExecutionReport> report =
      sys.Execute({static_cast<u32>(input.size()), 0u, 0u});
  if (!report.ok()) return report.status();
  return VimRun<i16>{out.value().ToVector(), report.value()};
}

Result<VimRun<u8>> RunAdpcmEncodeVim(FpgaSystem& sys,
                                     std::span<const i16> pcm) {
  if (pcm.empty() || pcm.size() % 2 != 0) {
    return InvalidArgumentError(
        "ADPCM encodes a nonzero, even number of samples");
  }
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::AdpcmEncodeBitstream()));

  Result<HostBuffer<i16>> in =
      sys.Allocate<i16>(static_cast<u32>(pcm.size()));
  if (!in.ok()) return in.status();
  in.value().Fill(pcm);
  Result<HostBuffer<u8>> out =
      sys.Allocate<u8>(static_cast<u32>(pcm.size() / 2));
  if (!out.ok()) return out.status();

  VCOP_RETURN_IF_ERROR(sys.Remap(cp::AdpcmEncodeCoprocessor::kObjIn,
                                 in.value(), os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::AdpcmEncodeCoprocessor::kObjOut,
                                 out.value(), os::Direction::kOut));

  Result<os::ExecutionReport> report =
      sys.Execute({static_cast<u32>(pcm.size()), 0u, 0u});
  if (!report.ok()) return report.status();
  return VimRun<u8>{out.value().ToVector(), report.value()};
}

namespace {

/// Shared IDEA runner: mode 0 = ECB, 1 = CBC encrypt, 2 = CBC decrypt.
Result<VimRun<u8>> RunIdeaMode(FpgaSystem& sys,
                               const apps::IdeaSubkeys& subkeys,
                               u32 mode, u32 iv_lo, u32 iv_hi,
                               std::span<const u8> input) {
  if (input.empty() || input.size() % apps::kIdeaBlockBytes != 0) {
    return InvalidArgumentError(
        "IDEA input must be a nonzero multiple of 8 bytes");
  }
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::IdeaBitstream()));

  Result<HostBuffer<u8>> in =
      sys.Allocate<u8>(static_cast<u32>(input.size()));
  if (!in.ok()) return in.status();
  in.value().Fill(input);
  Result<HostBuffer<u8>> out =
      sys.Allocate<u8>(static_cast<u32>(input.size()));
  if (!out.ok()) return out.status();
  Result<HostBuffer<u16>> key =
      sys.Allocate<u16>(static_cast<u32>(subkeys.size()));
  if (!key.ok()) return key.status();
  key.value().Fill(std::span<const u16>(subkeys.data(), subkeys.size()));

  // The in/out streams are addressed as 32-bit elements by the core;
  // map them with 4-byte element width over the same raw bytes.
  for (const auto& [id, buffer, dir] :
       {std::tuple{cp::IdeaCoprocessor::kObjIn, &in.value(),
                   os::Direction::kIn},
        std::tuple{cp::IdeaCoprocessor::kObjOut, &out.value(),
                   os::Direction::kOut}}) {
    if (sys.kernel().default_space().objects().Find(id) != nullptr) {
      VCOP_RETURN_IF_ERROR(sys.kernel().FpgaUnmapObject(id));
    }
    VCOP_RETURN_IF_ERROR(sys.kernel().FpgaMapObject(
        id, buffer->addr(), buffer->size_bytes(), /*elem_width=*/4, dir));
  }
  VCOP_RETURN_IF_ERROR(
      sys.Remap(cp::IdeaCoprocessor::kObjKey, key.value(),
                os::Direction::kIn));

  const u32 blocks =
      static_cast<u32>(input.size() / apps::kIdeaBlockBytes);
  Result<os::ExecutionReport> report =
      sys.Execute({blocks, mode, iv_lo, iv_hi});
  if (!report.ok()) return report.status();
  return VimRun<u8>{out.value().ToVector(), report.value()};
}

}  // namespace

Result<VimRun<u8>> RunIdeaVim(FpgaSystem& sys,
                              const apps::IdeaSubkeys& subkeys,
                              std::span<const u8> input) {
  return RunIdeaMode(sys, subkeys, cp::IdeaCoprocessor::kModeEcb, 0, 0,
                     input);
}

Result<VimRun<u8>> RunIdeaCbcVim(FpgaSystem& sys,
                                 const apps::IdeaSubkeys& subkeys,
                                 const apps::IdeaIv& iv, bool encrypt,
                                 std::span<const u8> input) {
  u32 iv_lo = 0, iv_hi = 0;
  for (u32 b = 0; b < 4; ++b) {
    iv_lo |= static_cast<u32>(iv[b]) << (8 * b);
    iv_hi |= static_cast<u32>(iv[4 + b]) << (8 * b);
  }
  return RunIdeaMode(sys, subkeys,
                     encrypt ? cp::IdeaCoprocessor::kModeCbcEncrypt
                             : cp::IdeaCoprocessor::kModeCbcDecrypt,
                     iv_lo, iv_hi, input);
}

Result<VimRun<u32>> RunVecAddVim(FpgaSystem& sys, std::span<const u32> a,
                                 std::span<const u32> b) {
  if (a.size() != b.size() || a.empty()) {
    return InvalidArgumentError("vecadd needs two equal nonzero vectors");
  }
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::VecAddBitstream()));

  const u32 n = static_cast<u32>(a.size());
  Result<HostBuffer<u32>> ba = sys.Allocate<u32>(n);
  if (!ba.ok()) return ba.status();
  ba.value().Fill(a);
  Result<HostBuffer<u32>> bb = sys.Allocate<u32>(n);
  if (!bb.ok()) return bb.status();
  bb.value().Fill(b);
  Result<HostBuffer<u32>> bc = sys.Allocate<u32>(n);
  if (!bc.ok()) return bc.status();

  VCOP_RETURN_IF_ERROR(sys.Remap(cp::VecAddCoprocessor::kObjA, ba.value(),
                                 os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::VecAddCoprocessor::kObjB, bb.value(),
                                 os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::VecAddCoprocessor::kObjC, bc.value(),
                                 os::Direction::kOut));

  Result<os::ExecutionReport> report = sys.Execute({n});
  if (!report.ok()) return report.status();
  return VimRun<u32>{bc.value().ToVector(), report.value()};
}

Result<VimRun<u32>> RunGatherVim(FpgaSystem& sys, std::span<const u32> in,
                                 std::span<const u32> perm) {
  if (in.empty() || perm.empty()) {
    return InvalidArgumentError("gather needs nonempty in and perm");
  }
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::GatherBitstream()));

  Result<HostBuffer<u32>> bin =
      sys.Allocate<u32>(static_cast<u32>(in.size()));
  if (!bin.ok()) return bin.status();
  bin.value().Fill(in);
  Result<HostBuffer<u32>> bperm =
      sys.Allocate<u32>(static_cast<u32>(perm.size()));
  if (!bperm.ok()) return bperm.status();
  bperm.value().Fill(perm);
  Result<HostBuffer<u32>> bout =
      sys.Allocate<u32>(static_cast<u32>(perm.size()));
  if (!bout.ok()) return bout.status();

  VCOP_RETURN_IF_ERROR(sys.Remap(cp::GatherCoprocessor::kObjIn, bin.value(),
                                 os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::GatherCoprocessor::kObjOut,
                                 bout.value(), os::Direction::kOut));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::GatherCoprocessor::kObjPerm,
                                 bperm.value(), os::Direction::kIn));

  Result<os::ExecutionReport> report =
      sys.Execute({static_cast<u32>(perm.size())});
  if (!report.ok()) return report.status();
  return VimRun<u32>{bout.value().ToVector(), report.value()};
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
  VCOP_RETURN_IF_ERROR(EnsureLoaded(sys, cp::Conv3x3Bitstream()));

  Result<HostBuffer<u8>> src =
      sys.Allocate<u8>(static_cast<u32>(image.size()));
  if (!src.ok()) return src.status();
  src.value().Fill(image);
  Result<HostBuffer<u8>> dst =
      sys.Allocate<u8>(static_cast<u32>(image.size()));
  if (!dst.ok()) return dst.status();
  Result<HostBuffer<u32>> coeffs = sys.Allocate<u32>(9);
  if (!coeffs.ok()) return coeffs.status();
  {
    auto view = coeffs.value().view();
    for (usize i = 0; i < 9; ++i) view[i] = static_cast<u32>(kernel[i]);
  }

  VCOP_RETURN_IF_ERROR(sys.Remap(cp::Conv3x3Coprocessor::kObjSrc,
                                 src.value(), os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::Conv3x3Coprocessor::kObjDst,
                                 dst.value(), os::Direction::kOut));
  VCOP_RETURN_IF_ERROR(sys.Remap(cp::Conv3x3Coprocessor::kObjKernel,
                                 coeffs.value(), os::Direction::kIn));

  Result<os::ExecutionReport> report =
      sys.Execute({width, height, shift});
  if (!report.ok()) return report.status();
  return VimRun<u8>{dst.value().ToVector(), report.value()};
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
