// The user-level programming interface — the C++ shape of Figure 6.
//
//   FpgaSystem sys(Epxa1Config());
//   auto a = sys.Allocate<u32>(n).value();       // int A[];
//   VCOP_CHECK(sys.Load(VecAddBitstream()).ok()); // FPGA_LOAD(ADD_bitstream)
//   sys.Map(0, a, Direction::kIn);               // FPGA_MAP_OBJECT(0, A, ..)
//   ...
//   auto report = sys.Execute({n});              // FPGA_EXECUTE(SIZE)
//
// "The semantics is similar to a function call with parameters passed
// by reference. There is no dependence on the available memory size."
#pragma once

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <list>
#include <span>
#include <type_traits>
#include <vector>

#include "base/status.h"
#include "hw/fabric.h"
#include "os/kernel.h"
#include "os/service.h"
#include "os/vcopd.h"

namespace vcop::runtime {

/// A typed handle to a buffer in the simulated process's user memory.
/// T must be trivially copyable (it crosses the software/hardware
/// boundary as raw bytes).
template <typename T>
class HostBuffer {
 public:
  HostBuffer() = default;
  HostBuffer(mem::UserMemory* memory, mem::UserAddr addr, u32 count)
      : memory_(memory), addr_(addr), count_(count) {}

  mem::UserAddr addr() const { return addr_; }
  u32 size() const { return count_; }             // element count
  u32 size_bytes() const { return count_ * static_cast<u32>(sizeof(T)); }
  bool valid() const { return memory_ != nullptr; }

  /// Host-side view of the buffer. It starts at its region's host block,
  /// which calloc aligns for any fundamental type, so the reinterpret is
  /// well-aligned for T.
  std::span<T> view() {
    auto bytes = memory_->View(addr_, size_bytes());
    return std::span<T>(reinterpret_cast<T*>(bytes.data()), count_);
  }
  std::span<const T> view() const {
    auto bytes =
        static_cast<const mem::UserMemory*>(memory_)->View(addr_,
                                                           size_bytes());
    return std::span<const T>(reinterpret_cast<const T*>(bytes.data()),
                              count_);
  }

  /// Copies `data` into the buffer (data.size() must equal size()).
  void Fill(std::span<const T> data) {
    VCOP_CHECK_MSG(data.size() == count_, "Fill size mismatch");
    std::copy(data.begin(), data.end(), view().begin());
  }

  /// Copies the buffer out.
  std::vector<T> ToVector() const {
    auto v = view();
    return std::vector<T>(v.begin(), v.end());
  }

 private:
  mem::UserMemory* memory_ = nullptr;
  mem::UserAddr addr_ = 0;
  u32 count_ = 0;
};

/// Facade over the simulated kernel: allocation + the three syscalls.
class FpgaSystem {
 public:
  explicit FpgaSystem(const os::KernelConfig& config) : kernel_(config) {}

  /// Allocates `count` elements of T in the process address space.
  /// Fails with INVALID_ARGUMENT when their byte size exceeds 32 bits.
  template <typename T>
  Result<HostBuffer<T>> Allocate(u32 count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const u64 bytes = u64{count} * sizeof(T);
    if (bytes > std::numeric_limits<u32>::max()) {
      return InvalidArgumentError("buffer size overflows 32 bits");
    }
    Result<mem::UserAddr> addr =
        kernel_.user_memory().Allocate(static_cast<u32>(bytes));
    if (!addr.ok()) return addr.status();
    return HostBuffer<T>(&kernel_.user_memory(), addr.value(), count);
  }

  /// FPGA_LOAD.
  Status Load(const hw::Bitstream& bitstream) {
    return kernel_.FpgaLoad(bitstream);
  }

  /// FPGA_MAP_OBJECT with the element width taken from the buffer type.
  template <typename T>
  Status Map(hw::ObjectId id, const HostBuffer<T>& buffer,
             os::Direction direction) {
    return kernel_.FpgaMapObject(id, buffer.addr(), buffer.size_bytes(),
                                 static_cast<u32>(sizeof(T)), direction);
  }

  Status Unmap(hw::ObjectId id) { return kernel_.FpgaUnmapObject(id); }

  /// Remaps `id` to a (possibly different) buffer: unmap + map, with an
  /// explicit element width (a core may address a byte buffer as 32-bit
  /// elements, e.g. IDEA's in/out streams).
  template <typename T>
  Status Remap(hw::ObjectId id, const HostBuffer<T>& buffer, u32 elem_width,
               os::Direction direction) {
    if (kernel_.default_space().objects().Find(id) != nullptr) {
      VCOP_RETURN_IF_ERROR(Unmap(id));
    }
    return kernel_.FpgaMapObject(id, buffer.addr(), buffer.size_bytes(),
                                 elem_width, direction);
  }

  /// FPGA_EXECUTE.
  Result<os::ExecutionReport> Execute(std::initializer_list<u32> params) {
    return kernel_.FpgaExecute(std::span<const u32>(params.begin(),
                                                    params.size()));
  }
  Result<os::ExecutionReport> Execute(std::span<const u32> params) {
    return kernel_.FpgaExecute(params);
  }

  Status Unload() { return kernel_.FpgaUnload(); }

  os::Kernel& kernel() { return kernel_; }
  const os::KernelConfig& config() const { return kernel_.config(); }

 private:
  os::Kernel kernel_;
};

/// Per-tenant client of the vcopd ring transport: SubmitRinged publishes
/// descriptors into the tenant's submission ring and rings the
/// doorbell; completions come back through the completion ring
/// (Await). The tenant must already be attached to `service`. Buffers
/// live in the one simulated user memory; map them through the daemon
/// (Vcopd::MapObject) for the tenant.
class VcopdClient {
 public:
  VcopdClient(os::VcopService& service, os::TenantId tenant)
      : service_(&service), tenant_(tenant) {}

  os::TenantId tenant() const { return tenant_; }

  /// Ring-backed FPGA_EXECUTE: publishes one descriptor and kicks the
  /// doorbell. Returns the completion cookie. A full submission ring
  /// reports ResourceExhausted immediately — the edge backpressure
  /// signal; nothing blocks.
  Result<u64> SubmitRinged(const hw::Bitstream& bitstream,
                           std::span<const u32> params) {
    if (params.size() > os::kRingMaxParams) {
      return InvalidArgumentError(
          "too many scalar parameters for a ring descriptor");
    }
    os::RingDescriptor descriptor;
    descriptor.cookie = next_cookie_++;
    descriptor.design = service_->RegisterDesign(bitstream);
    descriptor.nparams = static_cast<u32>(params.size());
    std::copy(params.begin(), params.end(), descriptor.params.begin());
    VCOP_RETURN_IF_ERROR(service_->Publish(tenant_, descriptor));
    VCOP_RETURN_IF_ERROR(service_->Kick(tenant_));
    return descriptor.cookie;
  }
  Result<u64> SubmitRinged(const hw::Bitstream& bitstream,
                           std::initializer_list<u32> params) {
    return SubmitRinged(bitstream,
                        std::span<const u32>(params.begin(), params.size()));
  }

  /// Drives the service until `cookie`'s completion arrives, reaping
  /// (and stashing) other completions along the way.
  Result<os::CompletionDescriptor> Await(u64 cookie) {
    for (int pass = 0; pass < 2; ++pass) {
      while (service_->HasCompletions(tenant_)) {
        Result<os::CompletionDescriptor> reaped = service_->Reap(tenant_);
        if (!reaped.ok()) return reaped.status();
        reaped_.push_back(reaped.value());
      }
      for (auto it = reaped_.begin(); it != reaped_.end(); ++it) {
        if (it->cookie == cookie) {
          const os::CompletionDescriptor found = *it;
          reaped_.erase(it);
          return found;
        }
      }
      if (pass == 0) VCOP_RETURN_IF_ERROR(service_->RunUntilQuiescent());
    }
    return NotFoundError("no completion for this cookie");
  }

 private:
  os::VcopService* service_;
  os::TenantId tenant_;
  u64 next_cookie_ = 1;
  /// Completions reaped while awaiting a different cookie. A list: Await
  /// erases from the middle, and an idle client stores none.
  std::list<os::CompletionDescriptor> reaped_;
};

}  // namespace vcop::runtime
