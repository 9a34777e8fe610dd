// dse_sweep: design-space exploration through one long-lived compile service
// (svc::CompileService, inline drain) whose cache lives for the whole run, as
// in a deployed service. One op is one sweep of four points of a seeded
// kernel, submitted together and drained:
//   - a fresh point (new kernel instance and clock): every stage cold;
//   - the same point with another place seed: schedule hit, map cold;
//   - two revisits of points of the last few sweeps: every stage hits.
// The fixed mix keeps every op the same shape, so op time is unimodal. Boot
// and co-simulation do no work here.
#include <array>
#include <deque>
#include <set>

#include "harness.hpp"
#include "kernel_flow.hpp"
#include "nxmap/bitstream.hpp"
#include "nxmap/device.hpp"
#include "svc/service.hpp"

namespace e2e {

using namespace hermes;

namespace {

/// Keeps the cache in steady state within a run of a few seconds: revisits
/// of the last kHistory sweeps fit, older entries are evicted.
constexpr std::size_t kCacheBytes = 4u << 20;
constexpr std::size_t kHistory = 8;
/// Clock periods a sweep explores (the range draw_kernel's periods span).
constexpr double kMinPeriodNs = 6.25;
constexpr double kMaxPeriodNs = 12.5;

constexpr std::array<const char*, 4> kStageSpans = {
    "svc.stage.characterize", "svc.stage.schedule", "svc.stage.map",
    "svc.stage.bitstream"};

svc::CompileRequest request_of(const KernelInstance& kernel) {
  svc::CompileRequest request;
  request.tenant = "dse";
  request.source = kernel.spec.source;
  request.flow = kernel.flow;
  request.backend = kernel.backend;
  return request;
}

/// A compiled point, kept so later sweeps can revisit it.
struct Visited {
  KernelInstance kernel;
  std::uint64_t fingerprint = 0;  ///< CompileOutcome::fingerprint(); 0 = new
  std::uint64_t netlist_digest = 0;
  std::vector<std::uint8_t> bitstream;
};

class DseSweep final : public Workload {
 public:
  explicit DseSweep(std::uint64_t seed)
      : seed_(seed),
        device_(nx::make_device(hls::ng_ultra())),
        service_(options(this)) {
    // Warm the per-target characterization, then run kHistory sweeps so the
    // timed ops start from a cache and a revisit history in steady state.
    // The warm-up sweeps do not depend on the seed, so neither does the
    // set-up's work.
    for (std::size_t w = 0; w < kHistory && setup_error_.empty(); ++w) {
      const OpResult warm = sweep(mix_seed(0, 6, w), w, nullptr);
      if (!warm.ok) setup_error_ = warm.failures.front().detail;
    }
  }

  OpResult run_op(std::size_t index, Trace* trace) override {
    if (!setup_error_.empty()) {
      OpResult result;
      result.fail("setup", setup_error_);
      return result;
    }
    OpResult result = sweep(mix_seed(seed_, 2, index), index, trace);
    // The first kQualityOps sweeps also compile the fresh point directly
    // through the library: the service must hand back the same design, and
    // the direct result supplies the placement figures the outcome omits.
    if (fresh_.fingerprint != 0 && index < DesignTally::kQualityOps) {
      auto direct = compile(fresh_.kernel, device_);
      if (!direct.ok() ||
          direct.value().flow.fsmd.module.digest() != fresh_.netlist_digest ||
          direct.value().backend.bitstream != fresh_.bitstream) {
        result.fail("service_vs_library",
                    "service result differs from run_flow/run_backend");
        return result;
      }
      const nx::BackendResult& be = direct.value().backend;
      tally_.add(index, be.timing.fmax_mhz, be.placement.hpwl,
                 static_cast<double>(be.mapped.utilization.luts),
                 static_cast<double>(be.bitstream.size()));
    }
    return result;
  }

  void quality_metrics(std::vector<Metric>& out) const override {
    tally_.append_to(out);
  }

  void finish_trace(Trace& trace) override {
    trace.gauge("svc.cache.bytes",
                static_cast<double>(service_.cache().stats().bytes_in_use));
  }

 private:
  /// One sweep drained through the service, with its output checks.
  /// Kernel families take turns, so every run holds them in the same
  /// proportion.
  OpResult sweep(std::uint64_t op_seed, std::size_t turn, Trace* trace) {
    OpResult result;
    Rng rng(op_seed);
    KernelInstance fresh = draw_fresh(rng, turn % kFamilies);
    KernelInstance variant = fresh;
    variant.backend.place.seed = rng.next_u64();
    std::vector<Visited> points(2);
    points[0].kernel = fresh;
    points[1].kernel = variant;
    for (int r = 0; r < 2; ++r) {
      points.push_back(history_.empty()
                           ? points[r]
                           : history_[rng.next_below(history_.size())]);
    }
    std::vector<svc::CompileRequest> requests;
    for (const Visited& point : points) requests.push_back(request_of(point.kernel));

    const std::uint64_t evictions_before = service_.cache().stats().evictions;
    OpClock clock(trace);
    trace_ = trace;
    std::vector<svc::CompileOutcome> outcomes = service_.run(std::move(requests));
    close_stage();
    trace_ = nullptr;
    clock.stop();
    result.take_times(clock);

    // ---- output checks (untimed) ----
    if (trace != nullptr) {
      trace->count("svc.cache.evictions",
                   static_cast<double>(service_.cache().stats().evictions -
                                       evictions_before));
    }
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      const svc::CompileOutcome& out = outcomes[p];
      if (!out.status.ok()) {
        result.fail("compile", out.status.to_string());
        continue;
      }
      if (!nx::verify_bitstream(out.bitstream).ok()) {
        result.fail("bitstream", "service bitstream fails verify_bitstream");
      }
      if (points[p].fingerprint != 0 && out.fingerprint() != points[p].fingerprint) {
        result.fail("revisit", "revisited point differs from its first compile");
      }
      if (trace != nullptr) {
        for (const svc::StageTrace& stage : out.stages) {
          trace->count(stage.hit ? "svc.cache.hits" : "svc.cache.misses", 1);
        }
      }
    }
    // The fresh point and its variant are kept for later revisits and the
    // direct-compile check only when both compiled.
    fresh_ = Visited{};
    if (!outcomes[0].status.ok() || !outcomes[1].status.ok()) return result;
    if (outcomes[0].netlist_digest != outcomes[1].netlist_digest) {
      result.fail("variant_netlist",
                  "place-seed variant changed the scheduled netlist");
    }
    for (std::size_t p = 0; p < 2; ++p) {
      points[p].fingerprint = outcomes[p].fingerprint();
      points[p].netlist_digest = outcomes[p].netlist_digest;
      points[p].bitstream = outcomes[p].bitstream;
      history_.push_back(points[p]);
    }
    fresh_ = points[0];
    while (history_.size() > 2 * kHistory) history_.pop_front();
    return result;
  }

  static svc::ServiceOptions options(DseSweep* self) {
    svc::ServiceOptions options;
    options.workers = 0;
    options.cache_bytes = kCacheBytes;
    options.stage_hook = [self](std::uint64_t, const svc::CompileRequest&,
                                svc::Stage stage) { self->open_stage(stage); };
    return options;
  }

  /// A point whose schedule key no earlier sweep of this run used, so its
  /// schedule stage is cold by construction. The clock period is swept
  /// continuously, so a repeat is rare and a redraw almost never needed.
  KernelInstance draw_fresh(Rng& rng, unsigned family) {
    KernelInstance kernel;
    for (int attempt = 0; attempt < 64; ++attempt) {
      kernel = draw_kernel(rng, family);
      kernel.flow.constraints.clock_period_ns =
          kMinPeriodNs + (kMaxPeriodNs - kMinPeriodNs) *
                             static_cast<double>(rng.next_below(1u << 20)) /
                             static_cast<double>(1u << 20);
      kernel.backend.target_period_ns = kernel.flow.constraints.clock_period_ns;
      if (seen_.insert(svc::schedule_key(kernel.spec.source, kernel.flow)).second) {
        break;
      }
    }
    return kernel;
  }

  /// The stage hook fires as each stage begins; a stage ends where the next
  /// one (of this job or the next) begins, or when the drain returns.
  void open_stage(svc::Stage stage) {
    if (trace_ == nullptr) return;
    close_stage();
    stage_span_ = trace_->begin(kStageSpans[static_cast<std::size_t>(stage)]);
    stage_open_ = true;
  }
  void close_stage() {
    if (trace_ != nullptr && stage_open_) trace_->end(stage_span_);
    stage_open_ = false;
  }

  std::uint64_t seed_;
  nx::NxDevice device_;
  svc::CompileService service_;
  std::string setup_error_;
  std::deque<Visited> history_;
  Visited fresh_;  ///< the fresh point of the last sweep; fingerprint 0 if it failed
  std::set<std::uint64_t> seen_;
  DesignTally tally_;
  Trace* trace_ = nullptr;
  std::size_t stage_span_ = 0;
  bool stage_open_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_dse_sweep(std::uint64_t seed) {
  return std::make_unique<DseSweep>(seed);
}

}  // namespace e2e
