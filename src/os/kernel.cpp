#include "os/kernel.h"

#include "base/table.h"

namespace vcop::os {

hw::ImuConfig ImuConfigFor(const KernelConfig& config) {
  hw::ImuConfig imu;
  imu.access_latency_cycles = config.imu_access_latency;
  imu.pipelined = config.imu_pipelined;
  imu.tlb_entries = config.tlb_entries;
  imu.bounds_check = config.imu_bounds_check;
  imu.posted_writes = config.imu_posted_writes;
  return imu;
}

Kernel::Kernel(const KernelConfig& config)
    : config_(config),
      user_memory_(config.user_memory_bytes),
      dp_ram_(config.dp_ram_bytes),
      fabric_(config.pld_capacity_les, config.config_bytes_per_second),
      shared_tlb_(config.tlb_entries),
      vim_(config.costs,
           mem::PageGeometry(config.page_bytes,
                             config.dp_ram_bytes / config.page_bytes),
           dp_ram_, user_memory_, sim_),
      default_space_(/*pid=*/1, /*asid=*/0) {
  VCOP_CHECK_MSG(config.dp_ram_bytes % config.page_bytes == 0,
                 "dual-port RAM size must be a whole number of pages");
  sim_.set_engine(config.engine);
  if (config.config_slots != 1) fabric_.SetConfigSlots(config.config_slots);
  vim_.Configure(config.vim);
  vim_.AttachSpace(&default_space_);
  vim_.set_timeline(&timeline_);
  irq_.set_handler([this](hw::InterruptCause cause) {
    switch (cause) {
      case hw::InterruptCause::kPageFault:
        vim_.OnPageFault();
        break;
      case hw::InterruptCause::kEndOfOperation:
        vim_.OnEndOfOperation();
        break;
    }
  });
  // Recovery wiring. Both hooks are inert without an installed fault
  // plan: parity bits only flip under kTlbParity, and the progress
  // probe is consulted only by the (plan-gated) watchdog.
  shared_tlb_.set_parity_drop_hook(
      [this](const hw::TlbEntry& dropped) { vim_.OnTlbParityDrop(dropped); });
  vim_.set_progress_probe([this]() -> u64 {
    return fabric_.coprocessor() ? fabric_.coprocessor()->cycles_run() : 0;
  });
}

void Kernel::InstallFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  irq_.set_fault_plan(plan);
  fabric_.set_fault_plan(plan);
  shared_tlb_.set_fault_plan(plan);
  vim_.InstallFaultPlan(plan);
  if (imu_) imu_->set_fault_plan(plan);
}

Status Kernel::FpgaLoad(const hw::Bitstream& bitstream) {
  Result<Picoseconds> configured = fabric_.Configure(bitstream);
  if (!configured.ok()) return configured.status();
  last_load_time_ = configured.value();

  // Fresh IMU wired for this design's clocks. The IMU's clock domain is
  // created before the coprocessor's so that, on coincident edges, the
  // translation pipeline advances before the core samples CP_TLBHIT.
  ++load_count_;
  shared_tlb_.InvalidateAll();
  shared_tlb_.ResetStats();
  imu_ = std::make_unique<hw::Imu>(
      ImuConfigFor(config_),
      mem::PageGeometry(config_.page_bytes,
                        config_.dp_ram_bytes / config_.page_bytes),
      dp_ram_, irq_, sim_, &shared_tlb_);

  imu_domain_ = &sim_.AddClockDomain(
      StrFormat("imu%u@%s", load_count_,
                bitstream.imu_clock.ToString().c_str()),
      bitstream.imu_clock);
  cp_domain_ = &sim_.AddClockDomain(
      StrFormat("cp%u@%s", load_count_,
                bitstream.cp_clock.ToString().c_str()),
      bitstream.cp_clock);
  imu_->set_fault_plan(fault_plan_);
  imu_->BindClocks(*imu_domain_, *cp_domain_);
  imu_domain_->Attach(*imu_);
  cp_domain_->Attach(*fabric_.coprocessor());
  fabric_.coprocessor()->BindPort(*imu_);
  vim_.BindImu(imu_.get());

  // Configuration takes real time on the configuration port.
  timeline_.Record(StrFormat("configure %s", bitstream.name.c_str()),
                   "config", sim_.now(), last_load_time_, /*track=*/0);
  sim_.ScheduleAfter(last_load_time_, [] {});
  sim_.RunToIdle();
  return Status::Ok();
}

Status Kernel::FpgaMapObject(hw::ObjectId id, mem::UserAddr addr,
                             u32 size_bytes, u32 elem_width,
                             Direction direction) {
  if (!user_memory_.Contains(addr, size_bytes)) {
    return InvalidArgumentError(StrFormat(
        "object %u: [%u, +%u) is not in the process address space", id,
        addr, size_bytes));
  }
  MappedObject object;
  object.id = id;
  object.user_addr = addr;
  object.size_bytes = size_bytes;
  object.elem_width = elem_width;
  object.direction = direction;
  if (id < hw::kMaxObjects) {
    object.page_bytes = config_.object_page_bytes[id];
  }
  return vim_.objects().Map(object);
}

Status Kernel::FpgaUnmapObject(hw::ObjectId id) {
  return vim_.objects().Unmap(id);
}

Result<ExecutionReport> Kernel::FpgaExecute(std::span<const u32> params) {
  if (!fabric_.loaded()) {
    return FailedPreconditionError("FPGA_EXECUTE with no design loaded");
  }
  Result<Picoseconds> setup = vim_.PrepareExecution(params);
  if (!setup.ok()) return setup.status();

  const Picoseconds t0 = sim_.now();
  bool done = false;
  Status failure = Status::Ok();
  vim_.set_completion_handler([&done] { done = true; });
  vim_.set_abort_handler([this, &done, &failure](Status status) {
    failure = std::move(status);
    fabric_.coprocessor()->Abort();
    done = true;
  });

  default_space_.process().Sleep(t0);
  const usize num_params = params.size();
  sim_.ScheduleAt(t0 + setup.value(), [this, num_params] {
    imu_->AssertStart();
    fabric_.coprocessor()->Start(static_cast<u32>(num_params));
    cp_domain_->Kick();
  });

  const bool converged = sim_.RunUntil([&done] { return done; });
  default_space_.process().Wake(sim_.now());
  vim_.set_completion_handler(nullptr);
  vim_.set_abort_handler(nullptr);
  if (!converged) {
    return UnavailableError(
        "coprocessor did not complete (simulation went idle or exceeded "
        "its event budget) — FSM deadlock?");
  }
  if (!failure.ok()) return failure;

  ExecutionReport report;
  report.total = sim_.now() - t0;
  report.t_invoke = setup.value() + vim_.accounting().t_wakeup;
  report.t_dp = vim_.accounting().t_dp;
  report.t_imu = vim_.accounting().t_imu;
  VCOP_CHECK_MSG(report.total >=
                     report.t_invoke + report.t_dp + report.t_imu,
                 "OS time exceeds wall time");
  report.t_hw = report.total - report.t_invoke - report.t_dp - report.t_imu;
  report.vim = vim_.accounting();
  report.imu = imu_->stats();
  report.tlb = imu_->tlb().stats();
  report.cp_cycles = fabric_.coprocessor()->cycles_run();
  timeline_.Record(
      StrFormat("execute %s", fabric_.current_bitstream().name.c_str()),
      "exec", t0, report.total, /*track=*/1);
  return report;
}

Status Kernel::FpgaUnload() {
  if (!fabric_.loaded()) {
    return FailedPreconditionError("FPGA_UNLOAD with no design loaded");
  }
  vim_.BindImu(nullptr);
  fabric_.Release();
  imu_.reset();
  return Status::Ok();
}

}  // namespace vcop::os
