#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>

#include "apps/adpcm.h"
#include "apps/conv2d.h"
#include "apps/idea.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/table.h"
#include "cp/adpcm_cp.h"
#include "cp/conv_cp.h"
#include "cp/gather_cp.h"
#include "cp/idea_cp.h"
#include "cp/registry.h"
#include "os/ring.h"
#include "runtime/config.h"

namespace vcop::perfbench {
namespace {

template <typename T>
std::vector<u8> AsBytes(std::span<const T> values) {
  std::vector<u8> bytes(values.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

template <typename T>
std::vector<T> FromBytes(const std::vector<u8>& bytes) {
  std::vector<T> values(bytes.size() / sizeof(T));
  if (!values.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

Object In(hw::ObjectId id, u32 elem_width, std::vector<u8> data) {
  Object o;
  o.id = id;
  o.elem_width = elem_width;
  o.direction = os::Direction::kIn;
  o.bytes = static_cast<u32>(data.size());
  o.data = std::move(data);
  return o;
}

Object Out(hw::ObjectId id, u32 elem_width, u32 bytes) {
  Object o;
  o.id = id;
  o.elem_width = elem_width;
  o.direction = os::Direction::kOut;
  o.bytes = bytes;
  return o;
}

Job AdpcmJob(u32 bytes, u64 seed) {
  Job job;
  job.app = App::kAdpcm;
  job.objects = {In(cp::AdpcmDecodeCoprocessor::kObjIn, 1,
                    apps::MakeAdpcmStream(bytes, seed)),
                 Out(cp::AdpcmDecodeCoprocessor::kObjOut, 2, bytes * 4)};
  job.params = {bytes, 0, 0};  // length, fresh predictor state
  return job;
}

Job IdeaJob(u32 bytes, u64 seed) {
  const apps::IdeaSubkeys keys = apps::IdeaExpandKey(apps::MakeIdeaKey(seed));
  Job job;
  job.app = App::kIdea;
  // The core addresses the in/out streams as 32-bit elements.
  job.objects = {
      In(cp::IdeaCoprocessor::kObjIn, 4, apps::MakeRandomBytes(bytes, seed + 1)),
      Out(cp::IdeaCoprocessor::kObjOut, 4, bytes),
      In(cp::IdeaCoprocessor::kObjKey, 2,
         AsBytes(std::span<const u16>(keys.data(), keys.size())))};
  job.params = {bytes / static_cast<u32>(apps::kIdeaBlockBytes),
                cp::IdeaCoprocessor::kModeEcb, 0, 0};
  return job;
}

Job ConvJob(u32 width, u32 height, u32 kernel_choice, u64 seed) {
  static const apps::Conv3x3Kernel kKernels[] = {
      apps::BoxBlurKernel(), apps::SharpenKernel(), apps::SobelXKernel(),
      apps::EmbossKernel()};
  const apps::Conv3x3Kernel& kernel = kKernels[kernel_choice % 4];
  std::vector<u32> coeffs(kernel.begin(), kernel.end());
  Job job;
  job.app = App::kConv;
  job.objects = {In(cp::Conv3x3Coprocessor::kObjSrc, 1,
                    apps::MakeTestImage(width, height, seed)),
                 Out(cp::Conv3x3Coprocessor::kObjDst, 1, width * height),
                 In(cp::Conv3x3Coprocessor::kObjKernel, 4,
                    AsBytes(std::span<const u32>(coeffs)))};
  job.params = {width, height, /*shift=*/3};
  return job;
}

/// out[i] = in[perm[i]] over `elements` words; a `1 - locality` share of
/// positions is shuffled globally, the rest stay in place.
Job GatherJob(u32 elements, double locality, u64 seed) {
  Rng rng(seed);
  std::vector<u32> in(elements);
  for (u32& v : in) v = static_cast<u32>(rng.Next());
  std::vector<u32> perm(elements);
  std::iota(perm.begin(), perm.end(), 0u);
  for (u32 i = elements - 1; i > 0; --i) {
    if (rng.NextDouble() < locality) continue;
    std::swap(perm[i], perm[rng.NextBelow(i + 1)]);
  }
  Job job;
  job.app = App::kGather;
  job.objects = {In(cp::GatherCoprocessor::kObjIn, 4,
                    AsBytes(std::span<const u32>(in))),
                 Out(cp::GatherCoprocessor::kObjOut, 4, elements * 4),
                 In(cp::GatherCoprocessor::kObjPerm, 4,
                    AsBytes(std::span<const u32>(perm)))};
  job.params = {elements};
  return job;
}

void Mix(u64& digest, u64 value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= static_cast<u8>(value >> (8 * i));
    digest *= 1099511628211ull;
  }
}

bool SameBytes(std::span<const u8> a, const std::vector<u8>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

hw::Bitstream Design(App app) {
  switch (app) {
    case App::kAdpcm: return cp::AdpcmDecodeBitstream();
    case App::kIdea: return cp::IdeaBitstream();
    case App::kConv: return cp::Conv3x3Bitstream();
    case App::kGather: return cp::GatherBitstream();
  }
  VCOP_CHECK_MSG(false, "unknown application");
  return {};
}

std::vector<u8> Reference(const Job& job) {
  const std::vector<u8>& in = job.objects[0].data;
  switch (job.app) {
    case App::kAdpcm: {
      std::vector<i16> out(in.size() * 2);
      apps::AdpcmState state;
      apps::AdpcmDecode(in, out, state);
      return AsBytes(std::span<const i16>(out));
    }
    case App::kIdea: {
      apps::IdeaSubkeys keys{};
      std::memcpy(keys.data(), job.objects[2].data.data(), sizeof(keys));
      std::vector<u8> out(in.size());
      apps::IdeaCryptEcb(keys, in, out);
      return out;
    }
    case App::kConv: {
      const std::vector<u32> coeffs = FromBytes<u32>(job.objects[2].data);
      apps::Conv3x3Kernel kernel{};
      for (usize i = 0; i < kernel.size(); ++i) {
        kernel[i] = static_cast<i32>(coeffs[i]);
      }
      std::vector<u8> out(in.size());
      apps::Convolve3x3(in, job.params[0], job.params[1], kernel,
                        job.params[2], out);
      return out;
    }
    case App::kGather: {
      const std::vector<u32> values = FromBytes<u32>(in);
      const std::vector<u32> perm = FromBytes<u32>(job.objects[2].data);
      std::vector<u32> out(perm.size());
      for (usize i = 0; i < perm.size(); ++i) out[i] = values[perm[i]];
      return AsBytes(std::span<const u32>(out));
    }
  }
  return {};
}

std::vector<Job> PaperPoints(u64 seed) {
  std::vector<Job> jobs;
  u64 s = seed;
  for (const u32 bytes : {2048u, 4096u, 8192u}) jobs.push_back(AdpcmJob(bytes, ++s));
  for (const u32 bytes : {4096u, 8192u, 16384u, 32768u}) {
    jobs.push_back(IdeaJob(bytes, s += 2));
  }
  return jobs;
}

std::vector<Job> PaperStreamJobs(u64 seed) {
  std::vector<Job> jobs = PaperPoints(seed);
  Rng rng(seed ^ 0xc0417c0417c0417cull);
  // The seed trims 0-8 pixels off each image's width, so every simulated
  // time moves with the seed but by under 2%. The 512x12 image lands
  // between the 4 KB adpcm and 16 KB IDEA points: it is the median job.
  for (const auto& [width, height] :
       {std::pair{512u, 12u}, {1024u, 24u}, {2048u, 24u}}) {
    jobs.push_back(ConvJob(width - static_cast<u32>(rng.NextBelow(9)), height,
                           static_cast<u32>(rng.NextBelow(4)), rng.Next()));
  }
  return jobs;
}

std::vector<Job> GatherJobs(u64 seed) {
  // 16 KB of DP-RAM: 24 KB objects are 1.5x it, 48 KB objects 3x.
  return {GatherJob(6144, 0.0, seed * 3 + 1), GatherJob(12288, 0.0, seed * 3 + 2),
          GatherJob(6144, 0.9, seed * 3 + 3)};
}

ServiceInputs ServiceTenants(u64 seed) {
  constexpr u32 kTenants = 144;
  ServiceInputs inputs;
  inputs.jobs_per_tenant = 8;
  Rng sizes(seed ^ 0x512512512512ull);
  for (u32 i = 0; i < kTenants; ++i) {
    // Small footprints, trimmed by a few seeded bytes per tenant: the
    // contention is 144 tenants against one fabric, not the pager. Half
    // the tenants run adpcm, whose reconfiguration is the cheapest, so
    // the median turnaround sits inside one design's group at any seed.
    const u64 s = seed * 1000 + i;
    const u32 trim = static_cast<u32>(sizes.NextBelow(3));
    switch (i % 4) {
      case 0:
      case 1: inputs.tenants.push_back(AdpcmJob(512 - 8 * trim, s)); break;
      case 2: inputs.tenants.push_back(IdeaJob(512 - 8 * trim, s)); break;
      default: inputs.tenants.push_back(ConvJob(24 - trim, 12, i / 4, s)); break;
    }
  }
  Rng rng(seed ^ 0x5e1f5e1f5e1f5e1full);
  inputs.phase_units.resize(kTenants);
  for (std::vector<u32>& phases : inputs.phase_units) {
    for (u32 k = 0; k < inputs.jobs_per_tenant; ++k) {
      phases.push_back(static_cast<u32>(rng.NextBelow(65536)));
    }
  }
  return inputs;
}

void SimStats::Add(const os::ExecutionReport& r) {
  cp_cycles += r.cp_cycles;
  imu.accesses += r.imu.accesses;
  imu.reads += r.imu.reads;
  imu.writes += r.imu.writes;
  imu.faults += r.imu.faults;
  imu.fault_stall_time += r.imu.fault_stall_time;
  imu.access_latency_time += r.imu.access_latency_time;
  tlb.lookups += r.tlb.lookups;
  tlb.hits += r.tlb.hits;
  tlb.misses += r.tlb.misses;
  tlb.installs += r.tlb.installs;
  vim.t_dp += r.vim.t_dp;
  vim.t_imu += r.vim.t_imu;
  vim.faults += r.vim.faults;
  vim.tlb_refills += r.vim.tlb_refills;
  vim.evictions += r.vim.evictions;
  vim.writebacks += r.vim.writebacks;
  vim.loads += r.vim.loads;
  vim.prefetched_pages += r.vim.prefetched_pages;
  vim.prefetch_useful += r.vim.prefetch_useful;
  vim.bytes_loaded += r.vim.bytes_loaded;
  vim.bytes_written_back += r.vim.bytes_written_back;
}

u64 SimStats::Digest() const {
  u64 d = 1469598103934665603ull;
  for (const u64 v :
       {jobs, refused, errors, wrong, makespan, events, cp_cycles,
        imu.accesses, imu.reads, imu.writes, imu.faults, imu.fault_stall_time,
        imu.access_latency_time, tlb.lookups, tlb.hits, tlb.misses,
        tlb.installs, reconfigs, activations, config_time, vim.t_dp,
        vim.t_imu, vim.faults, vim.tlb_refills, vim.evictions, vim.writebacks,
        vim.loads, vim.prefetched_pages, vim.prefetch_useful, vim.bytes_loaded,
        vim.bytes_written_back, vim_service.context_saves,
        vim_service.context_restores, vim_service.pages_written_back_on_save,
        vim_service.tlb_entries_restored, dispatches, preemptions,
        svc.doorbell_kicks, svc.doorbells_coalesced, svc.drains,
        svc.admission_deferrals, svc.daemon_backpressure, window_end,
        static_cast<u64>(backlog_growing)}) {
    Mix(d, v);
  }
  for (const std::vector<Picoseconds>* samples :
       {&turnaround, &job_totals, &queue_wait, &ring_wait}) {
    Mix(d, samples->size());
    for (const Picoseconds v : *samples) Mix(d, v);
  }
  u64 jain_bits = 0;
  std::memcpy(&jain_bits, &jain, sizeof(jain_bits));
  Mix(d, jain_bits);
  return d;
}

// ----- blocking caller -----

BlockingPass::BlockingPass(const std::vector<Job>& jobs, SpanRecorder& spans)
    : jobs_(jobs), spans_(spans) {
  for (usize j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    Slot& slot = slots_.emplace_back();
    slot.sys = std::make_unique<runtime::FpgaSystem>(runtime::Epxa1Config());
    {
      SpanRecorder::Scope load(&spans_, "load", j);
      VCOP_CHECK(slot.sys->Load(Design(job.app)).ok());
    }
    SpanRecorder::Scope stage(&spans_, "stage", j);
    for (const Object& o : job.objects) {
      runtime::HostBuffer<u8> buffer = slot.sys->Allocate<u8>(o.bytes).value();
      if (o.direction == os::Direction::kIn) {
        buffer.Fill(o.data);
      } else {
        // First touch of the mmap-backed user memory stays in set-up.
        std::ranges::fill(buffer.view(), u8{0});
      }
      VCOP_CHECK(slot.sys->kernel()
                     .FpgaMapObject(o.id, buffer.addr(), o.bytes,
                                    o.elem_width, o.direction)
                     .ok());
      slot.buffers.push_back(buffer);
    }
    slot.expect = Reference(job);
  }
}

void BlockingPass::Run() {
  for (usize j = 0; j < jobs_.size(); ++j) {
    sim::Simulator& sim = slots_[j].sys->kernel().simulator();
    const Picoseconds start = sim.now();
    const u64 events = sim.events_dispatched();
    Result<os::ExecutionReport> report = InvalidArgumentError("not run");
    {
      SpanRecorder::Scope execute(&spans_, "execute", j);
      report = slots_[j].sys->Execute(std::span<const u32>(jobs_[j].params));
    }
    stats_.events += sim.events_dispatched() - events;
    stats_.makespan += sim.now() - start;
    if (report.ok()) {
      stats_.Add(report.value());
      stats_.job_totals.push_back(report.value().total);
      stats_.turnaround.push_back(sim.now() - start);
    } else {
      ++stats_.errors;
    }
  }
  stats_.jobs = jobs_.size();
}

SimStats BlockingPass::Finish() {
  SpanRecorder::Scope verify(&spans_, "verify", 0);
  for (usize j = 0; j < jobs_.size(); ++j) {
    const Slot& slot = slots_[j];
    if (!SameBytes(slot.buffers[1].view(), slot.expect)) {
      ++stats_.wrong;
    }
  }
  return stats_;
}

std::vector<os::TimelineEvent> BlockingPass::timeline() {
  std::vector<os::TimelineEvent> events;
  Picoseconds offset = 0;
  for (Slot& slot : slots_) {
    for (os::TimelineEvent e : slot.sys->kernel().timeline().events()) {
      e.start += offset;
      events.push_back(std::move(e));
    }
    offset += slot.sys->kernel().simulator().now();
  }
  return events;
}

// ----- ring service -----

struct ServicePass::Tenant {
  usize index = 0;
  os::TenantId id = 0;
  u32 design = 0;
  std::vector<runtime::HostBuffer<u8>> buffers;
  std::vector<u8> expect;
  std::vector<Picoseconds> scheduled;  // per arrival; cookie = index + 1
  u64 arrived = 0;
  std::vector<os::CompletionDescriptor> done;
};

namespace {

os::VcopdConfig DaemonConfig(usize tenants) {
  os::VcopdConfig config;
  config.max_asids = static_cast<u32>(tenants) + 2;  // one ASID per tenant
  return config;
}

}  // namespace

ServicePass::ServicePass(const ServiceInputs& inputs, SpanRecorder& spans)
    : inputs_(inputs),
      spans_(spans),
      sys_(runtime::Epxa1Config()),
      daemon_(sys_.kernel(), DaemonConfig(inputs.tenants.size())),
      service_(daemon_) {
  for (usize i = 0; i < inputs.tenants.size(); ++i) {
    SpanRecorder::Scope stage(&spans_, "stage", i);
    const Job& job = inputs.tenants[i];
    auto t = std::make_unique<Tenant>();
    t->index = i;
    t->id = daemon_.RegisterTenant(StrFormat("tenant-%zu", i)).value();
    for (const Object& o : job.objects) {
      runtime::HostBuffer<u8> buffer = sys_.Allocate<u8>(o.bytes).value();
      if (o.direction == os::Direction::kIn) {
        buffer.Fill(o.data);
      } else {
        std::ranges::fill(buffer.view(), u8{0});
      }
      VCOP_CHECK(daemon_
                     .MapObject(t->id, o.id, buffer.addr(), o.bytes,
                                o.elem_width, o.direction)
                     .ok());
      t->buffers.push_back(buffer);
    }
    t->expect = Reference(job);
    t->design = service_.RegisterDesign(Design(job.app));
    VCOP_CHECK(service_.AttachTenant(t->id).ok());
    Tenant* tp = t.get();
    service_.SetCompletionNotifier(t->id, [this, tp] { Reap(*tp); });
    tenants_.push_back(std::move(t));
  }
}

ServicePass::~ServicePass() = default;

void ServicePass::Arrive(Tenant& t) {
  const Job& job = inputs_.tenants[t.index];
  os::RingDescriptor d;
  d.cookie = ++t.arrived;
  d.design = t.design;
  d.nparams = static_cast<u32>(job.params.size());
  std::copy(job.params.begin(), job.params.end(), d.params.begin());
  Status published = Status::Ok();
  {
    SpanRecorder::Scope publish(&spans_, "publish", t.index);
    published = service_.Publish(t.id, d);
  }
  if (!published.ok()) {
    // A full submission ring refuses the arrival: counted as failed.
    VCOP_CHECK(published.code() == ErrorCode::kResourceExhausted);
    ++stats_.refused;
    return;
  }
  SpanRecorder::Scope kick(&spans_, "kick", t.index);
  VCOP_CHECK(service_.Kick(t.id).ok());
}

void ServicePass::Reap(Tenant& t) {
  while (service_.HasCompletions(t.id)) {
    os::CompletionDescriptor c;
    {
      SpanRecorder::Scope reap(&spans_, "reap", t.index);
      c = service_.Reap(t.id).value();
    }
    SpanRecorder::Scope verify(&spans_, "verify", t.index);
    // The tenant's next job has not started yet (one job per tenant on
    // the fabric at a time), so its output buffer holds this job's
    // result; clearing it makes a job that writes nothing detectable.
    const std::span<u8> out = t.buffers[1].view();
    if (c.code == 0 && !SameBytes(out, t.expect)) ++stats_.wrong;
    std::ranges::fill(out, u8{0});
    t.done.push_back(c);
  }
}

void ServicePass::Run(u64 rate) {
  sim::Simulator& sim = sys_.kernel().simulator();
  const unsigned __int128 mean_gap =
      static_cast<unsigned __int128>(tenants_.size()) * kPicosecondsPerSecond /
      rate;
  stats_.window_end =
      sim.now() + static_cast<Picoseconds>(mean_gap * inputs_.jobs_per_tenant);
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    const std::vector<u32>& phases = inputs_.phase_units[t->index];
    for (u64 k = 0; k < phases.size(); ++k) {
      const Picoseconds at =
          sim.now() +
          static_cast<Picoseconds>(mean_gap * ((k << 16) + phases[k]) >> 16);
      t->scheduled.push_back(at);
      Tenant* tp = t.get();
      sim.ScheduleAt(at, [this, tp] { Arrive(*tp); });
    }
  }
  {
    SpanRecorder::Scope drive(&spans_, "drive", 0);
    VCOP_CHECK(service_.RunUntilQuiescent().ok());
  }
  for (const std::unique_ptr<Tenant>& t : tenants_) Reap(*t);
}

SimStats ServicePass::Finish() {
  SimStats& s = stats_;
  const os::ScheduleReport report = service_.BuildScheduleReport();
  s.makespan = report.makespan;
  for (const os::JobOutcome& outcome : report.outcomes) {
    if (outcome.status.ok()) s.Add(outcome.report);
  }
  const os::VcopdStats& daemon = daemon_.stats();
  s.dispatches = daemon.dispatches;
  s.preemptions = daemon.preemptions;
  s.reconfigs = daemon.reconfigurations;
  s.activations = daemon.slot_activations;
  s.config_time = daemon.total_config_time + daemon.total_activation_time;
  s.svc = service_.stats();
  s.vim_service = sys_.kernel().vim().service_stats();
  s.events = sys_.kernel().simulator().events_dispatched();

  std::vector<Picoseconds> arrivals;
  std::vector<Picoseconds> finishes;
  std::vector<double> by_window(tenants_.size(), 0.0);
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    s.jobs += t->scheduled.size();
    arrivals.insert(arrivals.end(), t->scheduled.begin(), t->scheduled.end());
  }
  for (const std::unique_ptr<Tenant>& t : tenants_) {
    for (const os::CompletionDescriptor& c : t->done) {
      const Picoseconds due = t->scheduled[c.cookie - 1];
      if (c.code != 0) ++s.errors;
      s.turnaround.push_back(c.finished_at - due);
      s.ring_wait.push_back(c.submitted_at - due);
      s.queue_wait.push_back(c.started_at - c.submitted_at);
      finishes.push_back(c.finished_at);
      if (c.finished_at <= s.window_end) by_window[t->index] += 1.0;
    }
  }
  // Backlog (arrived, not finished) at the middle and the end of the
  // arrival window: a rate the service cannot keep up with grows it.
  std::ranges::sort(arrivals);
  std::ranges::sort(finishes);
  auto backlog = [&](Picoseconds at) {
    const auto arrived = std::ranges::upper_bound(arrivals, at) - arrivals.begin();
    const auto finished = std::ranges::upper_bound(finishes, at) - finishes.begin();
    return static_cast<i64>(arrived - finished);
  };
  s.backlog_growing = backlog(s.window_end) - backlog(s.window_end / 2) >
                      static_cast<i64>(s.jobs / 20);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double c : by_window) {
    sum += c;
    sum_sq += c * c;
  }
  s.jain = sum_sq > 0.0
               ? sum * sum / (static_cast<double>(by_window.size()) * sum_sq)
               : 0.0;
  return s;
}

}  // namespace vcop::perfbench
