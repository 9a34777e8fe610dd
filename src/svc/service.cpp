#include "svc/service.hpp"

#include <bit>
#include <utility>

#include "common/bytes.hpp"
#include "hls/eucalyptus.hpp"
#include "nxmap/device.hpp"

namespace hermes::svc {

namespace {

/// The cached product of the characterize stage: the sweep points plus the
/// Bambu-library XML rendering, which doubles as the integrity image.
struct Characterization {
  std::vector<hls::CharacterizationPoint> points;
  std::string xml;
};

/// The cached product of the schedule stage: the flow result plus the digest
/// of its FSMD, taken once when the stage computes. Hits, the integrity image
/// and the map key all reuse it.
struct Scheduled {
  hls::FlowResult flow;
  std::uint64_t netlist_digest = 0;
};

// Integrity images are little-endian u64 fields: a text is its length
// followed by its bytes, a double its IEEE-754 bit pattern.
std::vector<std::uint8_t> image_of_characterization(
    const Characterization& artifact) {
  std::vector<std::uint8_t> image;
  bytes::Writer w(image);
  w.u64(artifact.points.size());
  w.u64(artifact.xml.size());
  w.raw(artifact.xml);
  return image;
}

std::vector<std::uint8_t> image_of_schedule(const Scheduled& scheduled) {
  const hls::FlowResult& flow = scheduled.flow;
  std::vector<std::uint8_t> image;
  bytes::Writer w(image);
  w.u64(scheduled.netlist_digest);
  w.u64(flow.fsm_states);
  w.u64(flow.ir_instrs_after);
  w.u64(flow.verilog.size());
  w.raw(flow.verilog);
  return image;
}

std::vector<std::uint8_t> image_of_map(std::uint64_t netlist_digest,
                                       const nx::MapResult& map) {
  std::vector<std::uint8_t> image;
  bytes::Writer w(image);
  w.u64(netlist_digest);
  w.u64(map.mapped.utilization.luts);
  w.u64(map.mapped.utilization.ffs);
  w.u64(map.mapped.utilization.dsps);
  w.u64(map.mapped.utilization.brams);
  w.u64(std::bit_cast<std::uint64_t>(map.timing.critical_path_ns));
  w.u64(std::bit_cast<std::uint64_t>(map.timing.fmax_mhz));
  w.u64(std::bit_cast<std::uint64_t>(map.timing.slack_ns));
  w.u64(std::bit_cast<std::uint64_t>(map.power.total_mw));
  return image;
}

std::vector<std::uint8_t> image_of_pack(const nx::PackResult& pack) {
  return pack.bitstream;  // the raw image IS the artifact
}

}  // namespace

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      pool_(options_.workers) {
  if (options_.injector != nullptr) cache_.attach_injector(options_.injector);
}

void CompileService::set_tenant_weight(const std::string& tenant,
                                       unsigned weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  tenants_[tenant].weight = weight == 0 ? 1 : weight;
}

std::uint64_t CompileService::submit(CompileRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = jobs_.size();
  auto record = std::make_unique<JobRecord>();
  record->request = std::move(request);
  record->outcome.tenant = record->request.tenant;
  record->outcome.job_id = id;
  Tenant& tenant = tenants_[record->request.tenant];
  tenant.pending.push_back(id);
  ++tenant.submitted;
  ++stats_.submitted;
  jobs_.push_back(std::move(record));
  return id;
}

bool CompileService::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (job_id >= jobs_.size()) return false;
  JobRecord& record = *jobs_[job_id];
  if (record.done) return false;
  record.cancelled.store(true, std::memory_order_relaxed);
  return true;
}

std::uint64_t CompileService::pop_wfq_locked() {
  // Pick the tenant minimizing (served + 1) / weight; exact integer
  // cross-multiply, first-in-map-order (lexicographic) on ties.
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant.pending.empty()) continue;
    if (best == nullptr ||
        (tenant.served + 1) * best->weight < (best->served + 1) * tenant.weight) {
      best = &tenant;
    }
  }
  if (best == nullptr) return kNoJob;
  const std::uint64_t id = best->pending.front();
  best->pending.pop_front();
  ++best->served;
  ++best->dispatched;
  return id;
}

bool CompileService::run_next() {
  JobRecord* record = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = pop_wfq_locked();
    if (id == kNoJob) return false;
    record = jobs_[id].get();
    record->outcome.dispatch_index = dispatch_counter_++;
  }
  execute(*record);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    record->done = true;
    ++stats_.completed;
    switch (record->outcome.status.code()) {
      case ErrorCode::kOk: ++stats_.succeeded; break;
      case ErrorCode::kCancelled: ++stats_.cancelled; break;
      case ErrorCode::kDeadlineExceeded: ++stats_.deadline_exceeded; break;
      default: ++stats_.failed; break;
    }
  }
  return true;
}

void CompileService::drain() {
  pool_.run_queue([this] { return run_next(); });
}

template <typename T>
std::shared_ptr<const T> CompileService::run_stage(
    JobRecord& record, Stage stage, std::uint64_t key,
    const std::function<Result<T>()>& compute,
    const std::function<std::vector<std::uint8_t>(const T&)>& image_of,
    const std::function<std::uint64_t(const T&)>& cold_cycles) {
  const CompileRequest& req = record.request;
  CompileOutcome& out = record.outcome;

  // Pre-stage gate: cancellation then budget, in that order.
  if (record.cancelled.load(std::memory_order_relaxed)) {
    out.status = Status::Error(ErrorCode::kCancelled, "job cancelled");
    return nullptr;
  }
  if (out.cycles_charged >= req.cycle_budget) {
    out.status = Status::Error(
        ErrorCode::kDeadlineExceeded,
        "cycle budget exhausted before " + std::string(to_string(stage)));
    return nullptr;
  }
  if (options_.stage_hook) options_.stage_hook(out.job_id, req, stage);

  // A failed compute inserts nothing and leaves its (non-ok) status here.
  Status failure;
  const std::function<std::shared_ptr<const T>()> make =
      [&]() -> std::shared_ptr<const T> {
    Result<T> made = compute();
    if (!made.ok()) {
      failure = made.status();
      return nullptr;
    }
    return std::make_shared<const T>(made.take());
  };
  // Waiter fallback: a requester that parked on another job's compute and
  // got null (the compiler failed or was cancelled) retries and becomes the
  // compiler itself, so one tenant's cancellation can never fail a
  // neighbour's job.
  bool hit = false;
  std::shared_ptr<const T> value;
  for (;;) {
    bool waiter = false;
    value = cache_.get_or_compute<T>(stage, key, make, image_of, &hit, &waiter);
    if (value != nullptr || !waiter) break;
  }

  if (value == nullptr) out.status = failure;
  const std::uint64_t cycles = value == nullptr ? 0
                               : hit            ? cost::kHitCycles
                                                : cold_cycles(*value);
  out.stages.push_back(StageTrace{stage, key, hit, cycles});
  out.cycles_charged += cycles;
  return value;
}

void CompileService::execute(JobRecord& record) {
  const CompileRequest& req = record.request;
  CompileOutcome& out = record.outcome;

  if (req.characterize) {
    const auto characterization = run_stage<Characterization>(
        record, Stage::kCharacterize,
        characterize_key(req.flow.target, options_.sweep),
        [&]() -> Result<Characterization> {
          Characterization made;
          hls::TechLibrary lib(req.flow.target);
          made.points = hls::run_sweep(lib, options_.sweep, &sweep_pool_);
          made.xml = hls::to_xml(req.flow.target, made.points);
          return made;
        },
        image_of_characterization,
        [](const Characterization& made) {
          return cost::characterize(made.points.size());
        });
    if (characterization == nullptr) return;
    out.characterization_points = characterization->points.size();
  }

  // Source-level jobs schedule; netlist-level jobs enter at the map stage.
  std::shared_ptr<const hw::Module> module = req.module;
  if (!req.source.empty()) {
    const auto scheduled = run_stage<Scheduled>(
        record, Stage::kSchedule, schedule_key(req.source, req.flow),
        [&]() -> Result<Scheduled> {
          auto design = hls::run_flow_schedule(req.source, req.flow);
          if (!design.ok()) return design.status();
          // Mid-stage cancellation point: between scheduling/binding and
          // datapath generation. An aborted compute inserts nothing.
          if (record.cancelled.load(std::memory_order_relaxed)) {
            return Status::Error(ErrorCode::kCancelled,
                                 "job cancelled mid-schedule");
          }
          auto finished = hls::finish_flow(design.take());
          if (!finished.ok()) return finished.status();
          Scheduled made{finished.take()};
          made.netlist_digest = made.flow.fsmd.module.digest();
          return made;
        },
        image_of_schedule,
        [&](const Scheduled& made) {
          return cost::schedule(req.source.size(), made.flow);
        });
    if (scheduled == nullptr) return;
    out.netlist_digest = scheduled->netlist_digest;
    out.fsm_states = scheduled->flow.fsm_states;
    // Aliasing share: the module lives inside the cached Scheduled.
    module = std::shared_ptr<const hw::Module>(scheduled,
                                               &scheduled->flow.fsmd.module);
  }

  if (module == nullptr) {
    out.status = Status::Error(ErrorCode::kInvalidArgument,
                               "request carries neither source nor netlist");
    return;
  }
  if (req.source.empty()) {
    // The backend maps its input as given: sweep a foreign netlist once, here.
    auto live = std::make_shared<hw::Module>(*module);
    hw::sweep_dead_cells(*live);
    module = std::move(live);
    out.netlist_digest = module->digest();
  }

  const nx::NxDevice device = nx::make_device(req.flow.target);
  const std::uint64_t map_stage_key =
      map_key(out.netlist_digest, req.flow.target, req.backend);
  const auto map = run_stage<nx::MapResult>(
      record, Stage::kMap, map_stage_key,
      [&] { return nx::run_backend_map(*module, device, req.backend); },
      [&](const nx::MapResult& made) {
        return image_of_map(out.netlist_digest, made);
      },
      [&](const nx::MapResult& made) { return cost::map(*module, made); });
  if (map == nullptr) return;
  out.timing = map->timing;
  out.power_total_mw = map->power.total_mw;

  const auto pack = run_stage<nx::PackResult>(
      record, Stage::kBitstream, bitstream_key(map_stage_key),
      [&] { return nx::pack_backend(*map, *module, device); }, image_of_pack,
      [](const nx::PackResult& made) {
        return cost::bitstream(made.bitstream.size());
      });
  if (pack == nullptr) return;
  out.bitstream = pack->bitstream;
  out.status = Status::Ok();
}

const CompileOutcome& CompileService::outcome(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.at(job_id)->outcome;
}

std::vector<CompileOutcome> CompileService::run(
    std::vector<CompileRequest> requests) {
  std::vector<std::uint64_t> ids;
  ids.reserve(requests.size());
  for (auto& request : requests) ids.push_back(submit(std::move(request)));
  drain();
  std::vector<CompileOutcome> outcomes;
  outcomes.reserve(ids.size());
  for (const std::uint64_t id : ids) outcomes.push_back(outcome(id));
  return outcomes;
}

ServiceStats CompileService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<TenantStats> CompileService::tenant_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStats> all;
  all.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStats stats;
    stats.tenant = name;
    stats.weight = tenant.weight;
    stats.submitted = tenant.submitted;
    stats.dispatched = tenant.dispatched;
    all.push_back(std::move(stats));
  }
  return all;
}

}  // namespace hermes::svc
