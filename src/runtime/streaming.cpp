#include "runtime/streaming.h"

#include "cp/adpcm_cp.h"
#include "cp/registry.h"

namespace vcop::runtime {

Result<AdpcmStreamDecoder> AdpcmStreamDecoder::Create(FpgaSystem& sys,
                                                      u32 chunk_bytes) {
  if (chunk_bytes == 0) {
    return InvalidArgumentError("chunk size must be nonzero");
  }
  const os::Design* loaded = sys.kernel().loaded_design();
  if (loaded == nullptr || loaded->name != "adpcmdecode") {
    if (loaded != nullptr) VCOP_RETURN_IF_ERROR(sys.Unload());
    VCOP_RETURN_IF_ERROR(sys.Load(cp::AdpcmDecodeBitstream()));
  }
  Result<HostBuffer<u8>> in = sys.Allocate<u8>(chunk_bytes);
  if (!in.ok()) return in.status();
  Result<HostBuffer<i16>> out = sys.Allocate<i16>(chunk_bytes * 2);
  if (!out.ok()) return out.status();
  return AdpcmStreamDecoder(sys, chunk_bytes, in.value(), out.value());
}

Result<std::vector<i16>> AdpcmStreamDecoder::DecodeChunk(
    std::span<const u8> chunk) {
  VCOP_CHECK_MSG(!chunk.empty() && chunk.size() <= chunk_bytes_,
                 "bad chunk size");
  const u32 bytes = static_cast<u32>(chunk.size());
  auto in_view = in_buffer_.view();
  std::copy(chunk.begin(), chunk.end(), in_view.begin());

  // Remap to the *used* prefix so the kernel's bounds checks see the
  // true extent of this chunk.
  if (sys_->kernel().default_space().objects().Find(
          cp::AdpcmDecodeCoprocessor::kObjIn) != nullptr) {
    VCOP_RETURN_IF_ERROR(
        sys_->Unmap(cp::AdpcmDecodeCoprocessor::kObjIn));
    VCOP_RETURN_IF_ERROR(
        sys_->Unmap(cp::AdpcmDecodeCoprocessor::kObjOut));
  }
  VCOP_RETURN_IF_ERROR(sys_->kernel().FpgaMapObject(
      cp::AdpcmDecodeCoprocessor::kObjIn, in_buffer_.addr(), bytes, 1,
      os::Direction::kIn));
  VCOP_RETURN_IF_ERROR(sys_->kernel().FpgaMapObject(
      cp::AdpcmDecodeCoprocessor::kObjOut, out_buffer_.addr(), bytes * 4,
      2, os::Direction::kOut));

  // Predictor state rides in the scalar parameters, exactly as the
  // mid-stream restart test does (§3.1 parameter passing).
  Result<os::ExecutionReport> report = sys_->Execute(
      {bytes, static_cast<u32>(static_cast<u16>(predictor_.valprev)),
       static_cast<u32>(predictor_.index)});
  if (!report.ok()) return report.status();

  // Advance the host-side predictor through the same data so the next
  // chunk's parameters are right. (The coprocessor has no way to hand
  // its final state back except through memory; tracking it host-side
  // costs one pass and keeps the object map minimal.)
  std::vector<i16> decoded(bytes * 2);
  apps::AdpcmDecode(chunk, decoded, predictor_);

  // The coprocessor's output is authoritative; assert they agree.
  const auto out_view = out_buffer_.view();
  for (u32 i = 0; i < bytes * 2; ++i) {
    VCOP_CHECK_MSG(out_view[i] == decoded[i],
                   "coprocessor and predictor-tracking disagree");
  }

  ++stats_.chunks;
  stats_.samples += bytes * 2;
  stats_.total_time += report.value().total;
  stats_.faults += report.value().vim.faults;
  return decoded;
}

Result<std::vector<i16>> AdpcmStreamDecoder::Feed(
    std::span<const u8> data) {
  pending_.insert(pending_.end(), data.begin(), data.end());
  std::vector<i16> out;
  usize consumed = 0;
  while (pending_.size() - consumed >= chunk_bytes_) {
    Result<std::vector<i16>> chunk = DecodeChunk(
        std::span<const u8>(pending_).subspan(consumed, chunk_bytes_));
    if (!chunk.ok()) return chunk.status();
    out.insert(out.end(), chunk.value().begin(), chunk.value().end());
    consumed += chunk_bytes_;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<long>(consumed));
  return out;
}

Result<std::vector<i16>> AdpcmStreamDecoder::Finish() {
  if (pending_.empty()) return std::vector<i16>{};
  Result<std::vector<i16>> out = DecodeChunk(pending_);
  if (out.ok()) pending_.clear();
  return out;
}

}  // namespace vcop::runtime
