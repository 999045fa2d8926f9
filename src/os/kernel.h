// The simulated operating system kernel.
//
// Owns the whole modelled platform (simulator, memories, fabric, IMU,
// interrupt line, VIM, calling process) and exposes the paper's three
// system calls (§3.1):
//
//   FPGA_LOAD        — configure the PLD with a bit-stream; exclusive.
//   FPGA_MAP_OBJECT  — declare a user-space dataset as interface object.
//   FPGA_EXECUTE     — pass scalar parameters, start the coprocessor,
//                      sleep until completion; page faults are serviced
//                      transparently along the way.
//
// FpgaExecute runs the event simulation to completion internally and
// returns an ExecutionReport with the same time decomposition the paper
// plots: hardware time, dual-port-RAM management time, IMU management
// time (plus the invocation overhead, which the paper folds into its
// totals).
//
// FPGA_EXECUTE and vcopd's slices reach the fabric by one route: a
// Design from Instantiate, bound to the VIM with an address space by
// Bind, started by Start, run by Run, reported by FillReport and handed
// back to the kernel's pool by Retire. FPGA_LOAD and vcopd's design
// switches both configure the PLD through hw::FpgaFabric::AcquireDesign.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"
#include "hw/fabric.h"
#include "hw/imu.h"
#include "hw/interrupt.h"
#include "hw/tlb.h"
#include "mem/dp_ram.h"
#include "mem/user_memory.h"
#include "os/address_space.h"
#include "os/calibration.h"
#include "os/process.h"
#include "os/timeline.h"
#include "os/vim.h"
#include "sim/simulator.h"

namespace vcop::os {

/// Platform defaults for the vcopd ring-transport service layer
/// (os/service.h): per-tenant ring sizing and token-bucket admission.
/// Parsed from the platform file (service_ring / service_rate /
/// service_burst) like every other knob; the service reads these as its
/// defaults and tenants may override rate/burst at attach time.
struct ServiceTuning {
  /// Entries per submission/completion ring (power of two in
  /// [2, 32768]).
  u32 ring_entries = 64;
  /// Token-bucket admission rate: jobs per simulated second drained
  /// from a tenant's submission ring (0 = unlimited).
  u64 admit_rate = 0;
  /// Token-bucket capacity: jobs a tenant may burst back-to-back after
  /// sitting idle.
  u32 admit_burst = 16;
};

/// Process address space modelled (the board has 64 MB SDRAM; 16 MB is
/// ample for every experiment).
inline constexpr u32 kUserMemoryBytes = 16 * 1024 * 1024;
/// PLD configuration-port rate.
inline constexpr u64 kConfigBytesPerSecond = 4 * 1024 * 1024;

/// Static description of the modelled platform. Presets for the
/// Excalibur family live in runtime/config.h.
struct KernelConfig {
  std::string platform_name = "EPXA1";
  /// Interface memory: EPXA1 has 16 KB of dual-port RAM, "logically
  /// organised in eight 2KB pages" (§4).
  u32 dp_ram_bytes = 16 * 1024;
  u32 page_bytes = 2 * 1024;
  /// Per-object page-size overrides in bytes, indexed by object id
  /// (0 = none: the object is paged at `page_bytes`). Kernel::MapObject
  /// fixes and checks an object's size; sizes above the frame granule
  /// are superpages.
  std::array<u32, hw::kMaxObjects> object_page_bytes{};
  /// IMU parameters (§3.2/§4).
  u32 tlb_entries = 8;
  u32 imu_access_latency = 4;
  bool imu_pipelined = false;
  /// Enable the IMU's posted-write buffer (extension; acknowledges
  /// writes early and retires them in the background).
  bool imu_posted_writes = false;
  /// PLD size (EPXA1: 4160 logic elements).
  u32 pld_capacity_les = 4160;
  /// Partial-reconfiguration regions in the configuration cache
  /// (hw::FpgaFabric::AcquireDesign). 1 = the classic model: every
  /// design alternation pays the full configuration-port transfer.
  u32 config_slots = 1;
  CostModel costs{};
  VimConfig vim{};
  /// Host-side event-kernel engine (sim/simulator.h). Both produce
  /// bit-identical ExecutionReports; kReference is the event-per-edge
  /// oracle that tests and bench_fastforward compare kFast against.
  sim::Engine engine = sim::Engine::kFast;
  /// Ring-transport service defaults (os/service.h).
  ServiceTuning service{};
};

/// What FPGA_EXECUTE measures, in the paper's decomposition.
struct ExecutionReport {
  Picoseconds total = 0;     // wall time of the blocking call
  Picoseconds t_hw = 0;      // coprocessor + IMU (incl. translation)
  Picoseconds t_dp = 0;      // OS transfers user <-> dual-port RAM
  Picoseconds t_imu = 0;     // OS fault decode + translation updates
  Picoseconds t_invoke = 0;  // syscall + execute setup + param passing
  VimAccounting vim;
  hw::ImuStats imu;
  hw::TlbStats tlb;
  u64 cp_cycles = 0;  // rising edges consumed by the coprocessor core
};

/// A design instantiated on the platform (Kernel::Instantiate): the
/// core its bit-stream creates, an IMU on the shared TLB, and the
/// coprocessor's clock domain. FPGA_LOAD holds one until FPGA_UNLOAD; a
/// vcopd job holds one from its first dispatch until it finishes. Both
/// then hand it back (Kernel::Retire), and the kernel's pool gives it
/// to the next job of the same bit-stream. The simulator's clock domains
/// keep raw pointers to the core and the IMU, so the kernel destroys no
/// design before it is destroyed itself.
struct Design {
  std::string name;
  std::unique_ptr<hw::Coprocessor> core;
  std::unique_ptr<hw::Imu> imu;
  sim::ClockDomain* cp_domain = nullptr;

  /// Ends a run mid-flight: the core and the IMU return to idle.
  void Stop() {
    core->Abort();
    imu->HardStop();
  }
};

/// How Kernel::Run left the execution bound to the VIM.
struct RunEnd {
  /// False when the run stopped at a preemption, with the clock past
  /// the context save; a later Run resumes it.
  bool done = false;
  /// False when the simulation went idle or exceeded its event budget
  /// before the execution ended (a deadlocked core).
  bool converged = true;
  /// Why a done execution failed; OK when it completed.
  Status status;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ----- the three OS services of §3.1 -----

  /// Loads a coprocessor bit-stream; fails with ResourceExhausted if one
  /// is already loaded (the PLD is an exclusive resource). Simulated
  /// time advances by what hw::FpgaFabric::AcquireDesign charges:
  /// nothing when the design is still the active one.
  Status FpgaLoad(const hw::Bitstream& bitstream);

  /// Declares a mapped object (parameter-passing by reference, §3.1).
  Status FpgaMapObject(hw::ObjectId id, mem::UserAddr addr, u32 size_bytes,
                       u32 elem_width, Direction direction);

  /// Removes an object mapping.
  Status FpgaUnmapObject(hw::ObjectId id);

  /// The one object mapping, for FPGA_MAP_OBJECT and vcopd tenants
  /// alike: maps `id` in `space` over user memory [addr, +size_bytes),
  /// paged at the frame granule or the object's override
  /// (KernelConfig::object_page_bytes). An override that is not a power
  /// of two in [mem::kMinObjectPageBytes, mem::kMaxObjectPageBytes],
  /// below the granule or larger than the DP-RAM is InvalidArgument.
  Status MapObject(AddressSpace& space, hw::ObjectId id, mem::UserAddr addr,
                   u32 size_bytes, u32 elem_width, Direction direction);

  /// Re-points `space`'s objects as `refs` say (size, width, direction
  /// and page size unchanged), all or none: every ref must name a
  /// mapped object below hw::kMaxObjects and a range in user memory
  /// before any is applied. Then shoots down the space's cached DMA
  /// translations: the pages behind its virtual ranges just changed.
  Status RepointObjects(AddressSpace& space, std::span<const ObjectRef> refs);

  /// Runs the loaded coprocessor to completion with `params` passed
  /// through the parameter page. Blocking (the process sleeps).
  Result<ExecutionReport> FpgaExecute(std::span<const u32> params);

  /// Releases the PLD.
  Status FpgaUnload();

  // ----- platform access for applications and tests -----
  mem::UserMemory& user_memory() { return user_memory_; }
  mem::DualPortRam& dp_ram() { return dp_ram_; }
  sim::Simulator& simulator() { return sim_; }
  Vim& vim() { return vim_; }
  Process& process() { return default_space_.process(); }
  hw::FpgaFabric& fabric() { return fabric_; }
  /// The design FPGA_LOAD configured (nullptr when none) and its IMU.
  const Design* loaded_design() const { return design_.get(); }
  hw::Imu* imu() { return design_ != nullptr ? design_->imu.get() : nullptr; }
  hw::InterruptLine& irq() { return irq_; }
  /// The single interface TLB shared by every IMU instantiated on this
  /// platform (ASID-tagged; see os/vcopd.h).
  hw::Tlb& shared_tlb() { return shared_tlb_; }
  /// The kernel's own address space (ASID 0), used by the blocking
  /// single-tenant system calls.
  AddressSpace& default_space() { return default_space_; }
  const KernelConfig& config() const { return config_; }

  /// Configuration time of the most recent FPGA_LOAD (0: already active).
  Picoseconds last_load_time() const { return last_load_time_; }

  // ----- the route onto the fabric (FPGA_EXECUTE and vcopd) -----

  /// Returns `bitstream`'s design for address space `asid`. An idle
  /// design of the same name from the pool is taken first, its IMU
  /// re-programmed with `asid` and the installed fault plan. Otherwise a
  /// new one is built: the core from Bitstream::create, an IMU on the
  /// shared TLB presenting `asid`, and the IMU's clock domain before the
  /// coprocessor's, so that on coincident edges the translation
  /// pipeline advances before the core samples CP_TLBHIT. The caller has
  /// configured `bitstream` (FpgaFabric::AcquireDesign).
  std::unique_ptr<Design> Instantiate(const hw::Bitstream& bitstream,
                                      hw::Asid asid);

  /// Returns a design whose run has ended to the pool; its core and IMU
  /// must be idle (Design::Stop ends a run that has not). The IMU's
  /// tracer and page-reference probe are detached. nullptr is a no-op.
  void Retire(std::unique_ptr<Design> design);

  /// Designs built so far; a design taken from the pool is not counted.
  u32 designs_built() const { return designs_built_; }

  /// Binds `space` and `design` to the VIM for a run on the fabric: the
  /// IMU, the watchdog's progress probe, and the end handler that ends
  /// Run.
  void Bind(AddressSpace& space, Design& design);

  /// Prepares a new execution of the bound design with `params`
  /// (Vim::PrepareExecution) and schedules CP_START `lead` plus the
  /// setup cost after now. Returns the setup cost.
  Result<Picoseconds> Start(std::span<const u32> params, Picoseconds lead);

  /// Runs the simulation until the bound execution completes or fails
  /// (an abort, or a run that cannot converge), or until the VIM
  /// preempts it: for this run only, `preempt` is consulted at each page
  /// fault (Vim::set_preempt_check), and once it returns true the VIM
  /// saves the context instead of servicing the fault. Returns with the
  /// clock past the save and the handlers Bind wired removed.
  RunEnd Run(std::function<bool()> preempt = nullptr);

  /// Fills `report` for an execution of `space` on `design` that began
  /// at `started` and ends now. `report.t_invoke` holds the caller's
  /// dispatch cost; the wake-up joins it, the OS's transfer and IMU
  /// management come from the space's accounting, and t_hw is the rest
  /// of the wall time. The TLB counters are the caller's.
  void FillReport(ExecutionReport& report, Picoseconds started,
                  const AddressSpace& space, const Design& design) const;

  /// Points the VIM at the default space with no design bound, before a
  /// design or a tenant space it holds goes away.
  void Unbind();

  // ----- fault injection (base/fault.h) -----

  /// Installs `plan` across every model on the platform (bus, interrupt
  /// line, shared TLB, fabric, VIM, the loaded design's IMU and any IMU
  /// instantiated later). Pass nullptr to remove it. The plan is not
  /// owned and must outlive the kernel or the next InstallFaultPlan.
  /// With no plan installed — or an empty one — every code path is
  /// bit-identical to the fault-free engine.
  void InstallFaultPlan(FaultPlan* plan);
  FaultPlan* fault_plan() { return fault_plan_; }

  /// Event timeline across all calls (Chrome-trace exportable).
  TimelineRecorder& timeline() { return timeline_; }

 private:
  KernelConfig config_;
  sim::Simulator sim_;
  mem::UserMemory user_memory_;
  mem::DualPortRam dp_ram_;
  hw::InterruptLine irq_;
  hw::FpgaFabric fabric_;
  hw::Tlb shared_tlb_;
  Vim vim_;
  AddressSpace default_space_;

  TimelineRecorder timeline_;
  /// FPGA_LOAD's design, held until FPGA_UNLOAD.
  std::unique_ptr<Design> design_;
  /// Retired designs, idle until Instantiate hands one out again.
  std::vector<std::unique_ptr<Design>> pool_;
  u32 designs_built_ = 0;
  Picoseconds last_load_time_ = 0;
  FaultPlan* fault_plan_ = nullptr;

  // The run bound to the VIM (Bind) and what its handlers reported.
  Design* bound_ = nullptr;
  bool run_done_ = false;
  Status run_failure_ = Status::Ok();
  bool run_preempted_ = false;
};

}  // namespace vcop::os
