#include "os/kernel.h"

#include <iterator>

#include "base/table.h"

namespace vcop::os {

Kernel::Kernel(const KernelConfig& config)
    : config_(config),
      user_memory_(kUserMemoryBytes),
      dp_ram_(config.dp_ram_bytes),
      fabric_(config.pld_capacity_les, kConfigBytesPerSecond),
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
  // Recovery wiring, inert without an installed fault plan: parity
  // bits only flip under kTlbParity.
  shared_tlb_.set_parity_drop_hook(
      [this](const hw::TlbEntry& dropped) { vim_.OnTlbParityDrop(dropped); });
}

void Kernel::InstallFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  irq_.set_fault_plan(plan);
  fabric_.set_fault_plan(plan);
  shared_tlb_.set_fault_plan(plan);
  vim_.InstallFaultPlan(plan);
  if (design_ != nullptr) design_->imu->set_fault_plan(plan);
}

std::unique_ptr<Design> Kernel::Instantiate(const hw::Bitstream& bitstream,
                                            hw::Asid asid) {
  // The most recently retired design of the name: the fabric already
  // treats a name as a design's identity (FpgaFabric::DesignResident).
  for (auto it = pool_.rbegin(); it != pool_.rend(); ++it) {
    if ((*it)->name != bitstream.name) continue;
    std::unique_ptr<Design> design = std::move(*it);
    pool_.erase(std::next(it).base());
    design->imu->SetAsid(asid);
    design->imu->set_fault_plan(fault_plan_);
    return design;
  }

  auto design = std::make_unique<Design>();
  design->name = bitstream.name;
  design->core = bitstream.create();
  VCOP_CHECK_MSG(design->core != nullptr, "bitstream factory returned null");
  design->imu = std::make_unique<hw::Imu>(
      hw::ImuConfig{.access_latency_cycles = config_.imu_access_latency,
                    .pipelined = config_.imu_pipelined,
                    .posted_writes = config_.imu_posted_writes},
      mem::PageGeometry(config_.page_bytes,
                        config_.dp_ram_bytes / config_.page_bytes),
      dp_ram_, irq_, sim_, shared_tlb_);
  design->imu->SetAsid(asid);
  design->imu->set_fault_plan(fault_plan_);

  ++designs_built_;
  sim::ClockDomain& imu_domain = sim_.AddClockDomain(
      StrFormat("imu%u@%s", designs_built_,
                bitstream.imu_clock.ToString().c_str()),
      bitstream.imu_clock);
  design->cp_domain = &sim_.AddClockDomain(
      StrFormat("cp%u@%s", designs_built_,
                bitstream.cp_clock.ToString().c_str()),
      bitstream.cp_clock);
  design->imu->BindClocks(imu_domain, *design->cp_domain);
  imu_domain.Attach(*design->imu);
  design->cp_domain->Attach(*design->core);
  design->core->BindPort(*design->imu);
  return design;
}

void Kernel::Retire(std::unique_ptr<Design> design) {
  if (design == nullptr) return;
  // Coprocessor::Start and Imu::AssertStart both require an idle design.
  VCOP_CHECK_MSG(!design->core->running() && !design->imu->busy(),
                 "retiring a design whose run has not ended");
  design->imu->AttachTracer(nullptr);
  design->imu->set_page_ref_probe(nullptr);
  pool_.push_back(std::move(design));
}

void Kernel::Bind(AddressSpace& space, Design& design) {
  bound_ = &design;
  run_done_ = false;
  run_failure_ = Status::Ok();
  run_preempted_ = false;
  vim_.BindImu(design.imu.get());
  vim_.AttachSpace(&space);
  hw::Coprocessor* core = design.core.get();
  vim_.set_progress_probe([core] { return core->cycles_run(); });
  vim_.set_end_handler([this](Status status, bool preempted) {
    if (preempted) {
      run_preempted_ = true;
      return;
    }
    if (!status.ok()) {
      // A failed run stops its design and discards the space's interface
      // state, so partial results never reach user memory.
      run_failure_ = std::move(status);
      bound_->Stop();
      vim_.FlushAsid(vim_.space()->asid());
    }
    run_done_ = true;
  });
}

Result<Picoseconds> Kernel::Start(std::span<const u32> params,
                                  Picoseconds lead) {
  const Result<Picoseconds> setup = vim_.PrepareExecution(params);
  if (!setup.ok()) return setup;
  hw::Imu* imu = bound_->imu.get();
  hw::Coprocessor* core = bound_->core.get();
  sim::ClockDomain* cp = bound_->cp_domain;
  const u32 num_params = static_cast<u32>(params.size());
  sim_.ScheduleAt(sim_.now() + lead + setup.value(),
                  [imu, core, cp, num_params] {
                    imu->AssertStart();
                    core->Start(num_params);
                    cp->Kick();
                  });
  return setup;
}

RunEnd Kernel::Run(std::function<bool()> preempt) {
  vim_.set_preempt_check(std::move(preempt));
  RunEnd end;
  end.converged = sim_.RunUntil(
      [this] { return run_done_ || run_preempted_; });
  if (!end.converged) {
    vim_.Abort(UnavailableError(
        "coprocessor did not complete (simulation went idle or exceeded "
        "its event budget) — FSM deadlock?"));
  }
  vim_.set_preempt_check(nullptr);
  vim_.set_end_handler(nullptr);
  end.done = run_done_;
  end.status = run_failure_;
  return end;
}

void Kernel::FillReport(ExecutionReport& report, Picoseconds started,
                        const AddressSpace& space,
                        const Design& design) const {
  const VimAccounting& acct = space.accounting;
  report.total = sim_.now() - started;
  report.t_invoke += acct.t_wakeup;
  report.t_dp = acct.t_dp;
  report.t_imu = acct.t_imu;
  VCOP_CHECK_MSG(report.total >=
                     report.t_invoke + report.t_dp + report.t_imu,
                 "OS time exceeds wall time");
  report.t_hw = report.total - report.t_invoke - report.t_dp - report.t_imu;
  report.vim = acct;
  report.imu = design.imu->stats();
  report.cp_cycles = design.core->cycles_run();
}

void Kernel::Unbind() {
  bound_ = nullptr;
  vim_.AttachSpace(&default_space_);
  vim_.BindImu(nullptr);
  vim_.set_progress_probe(nullptr);
  vim_.set_end_handler(nullptr);
}

Status Kernel::FpgaLoad(const hw::Bitstream& bitstream) {
  if (design_ != nullptr) {
    return ResourceExhaustedError(
        StrFormat("PLD already configured with '%s' (exclusive use)",
                  design_->name.c_str()));
  }
  const Result<hw::SlotAcquire> acquired = fabric_.AcquireDesign(bitstream);
  if (!acquired.ok()) return acquired.status();
  last_load_time_ = acquired.value().time;
  design_ = Instantiate(bitstream, default_space_.asid());

  // Configuration takes real time on the configuration port.
  timeline_.Record(TimelineKind::kConfigure, sim_.now(), last_load_time_,
                   {}, bitstream.name);
  sim_.ScheduleAfter(last_load_time_, [] {});
  sim_.RunToIdle();
  return Status::Ok();
}

Status Kernel::FpgaMapObject(hw::ObjectId id, mem::UserAddr addr,
                             u32 size_bytes, u32 elem_width,
                             Direction direction) {
  return MapObject(default_space_, id, addr, size_bytes, elem_width,
                   direction);
}

Status Kernel::FpgaUnmapObject(hw::ObjectId id) {
  return default_space_.objects().Unmap(id);
}

namespace {

Status CheckUserRange(const mem::UserMemory& user, hw::ObjectId id,
                      mem::UserAddr addr, u32 size_bytes) {
  if (user.Contains(addr, size_bytes)) return Status::Ok();
  return InvalidArgumentError(StrFormat(
      "object %u: [%u, +%u) is not in the process address space", id, addr,
      size_bytes));
}

}  // namespace

Status Kernel::MapObject(AddressSpace& space, hw::ObjectId id,
                         mem::UserAddr addr, u32 size_bytes, u32 elem_width,
                         Direction direction) {
  VCOP_RETURN_IF_ERROR(CheckUserRange(user_memory_, id, addr, size_bytes));
  MappedObject object;
  object.id = id;
  object.user_addr = addr;
  object.size_bytes = size_bytes;
  object.elem_width = elem_width;
  object.direction = direction;
  // An override must not subdivide a frame, and a page must fit the
  // DP-RAM.
  const u32 page = id < hw::kMaxObjects ? config_.object_page_bytes[id] : 0;
  if (page != 0 &&
      (!mem::IsValidObjectPageBytes(page) || page < config_.page_bytes ||
       page > config_.dp_ram_bytes)) {
    return InvalidArgumentError(StrFormat(
        "object %u page size %u must be a power of two in [%u, %u], at "
        "least the %u-byte frame granule and at most the %u-byte dual-port "
        "RAM",
        id, page, mem::kMinObjectPageBytes, mem::kMaxObjectPageBytes,
        config_.page_bytes, config_.dp_ram_bytes));
  }
  object.page_bytes = page != 0 ? page : config_.page_bytes;
  return space.objects().Map(object);
}

Status Kernel::RepointObjects(AddressSpace& space,
                              std::span<const ObjectRef> refs) {
  for (const ObjectRef& ref : refs) {
    if (ref.object >= hw::kMaxObjects) {
      return InvalidArgumentError(StrFormat(
          "object id %u out of range (max %u)", ref.object,
          hw::kMaxObjects - 1));
    }
    const MappedObject* object =
        space.objects().Find(static_cast<hw::ObjectId>(ref.object));
    if (object == nullptr) {
      return NotFoundError(StrFormat("no object %u to re-point", ref.object));
    }
    VCOP_RETURN_IF_ERROR(CheckUserRange(user_memory_, object->id, ref.addr,
                                        object->size_bytes));
  }
  if (refs.empty()) return Status::Ok();
  for (const ObjectRef& ref : refs) {
    VCOP_RETURN_IF_ERROR(space.objects().Repoint(
        static_cast<hw::ObjectId>(ref.object), ref.addr));
  }
  vim_.transfer_engine().Invalidate(space.asid());
  return Status::Ok();
}

Result<ExecutionReport> Kernel::FpgaExecute(std::span<const u32> params) {
  if (design_ == nullptr) {
    return FailedPreconditionError("FPGA_EXECUTE with no design loaded");
  }
  Bind(default_space_, *design_);
  const hw::TlbStats tlb_mark = shared_tlb_.stats();
  const Picoseconds t0 = sim_.now();
  const Result<Picoseconds> setup = Start(params, /*lead=*/0);
  if (!setup.ok()) return setup.status();

  default_space_.process().Sleep(t0);
  const RunEnd end = Run();
  default_space_.process().Wake(sim_.now());
  if (!end.status.ok()) return end.status;

  ExecutionReport report;
  report.t_invoke = setup.value();
  FillReport(report, t0, default_space_, *design_);
  report.tlb = shared_tlb_.stats() - tlb_mark;
  timeline_.Record(TimelineKind::kExecute, t0, report.total, {},
                   design_->name);
  return report;
}

Status Kernel::FpgaUnload() {
  if (design_ == nullptr) {
    return FailedPreconditionError("FPGA_UNLOAD with no design loaded");
  }
  Unbind();
  Retire(std::move(design_));
  return Status::Ok();
}

}  // namespace vcop::os
