// qual_campaign: qualification episodes over accelerators compiled once in
// set-up. One episode boots a fresh SoC under a seeded fault plan over the
// flash, SpaceWire and eFPGA-programming injection points, scrubs the eFPGA
// configuration, and runs one bit-sliced SEU batch (63 fault lanes) on the
// accelerator's netlist. HLS and placement do no work here; boot recovery
// rungs and the simulator do nearly all of it.
#include <optional>

#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "harness.hpp"
#include "kernel_flow.hpp"
#include "nxmap/device.hpp"

namespace e2e {

using namespace hermes;

namespace {

constexpr std::string_view kQualPoints[] = {
    "flash.rot.replica",        "flash.rot.voted",
    "spw.frame.corrupt",        "spw.frame.drop",
    "efpga.prog.header.corrupt", "efpga.prog.frame.corrupt",
    "efpga.prog.frame.drop",    "efpga.config.rot"};

constexpr std::size_t kReplicasPerBatch = 63;  ///< one sliced batch

/// Clock period (ns) and multiplier budget each catalog kernel is built with.
constexpr std::pair<double, unsigned> kBuilds[] = {{10.0, 2}, {6.25, 4}};
constexpr unsigned kScrubPasses = 2;
/// One episode in kOracleEvery also runs the serial SEU oracle (untimed).
constexpr std::uint64_t kOracleEvery = 4;

struct Accelerator {
  hw::Module module{"<empty>"};
  std::vector<std::uint8_t> bitstream;
  std::uint64_t config_digest = 0;
  double fmax_mhz = 0, hpwl = 0, luts = 0;
};

class QualCampaign final : public Workload {
 public:
  explicit QualCampaign(std::uint64_t seed) : seed_(seed) {
    // The catalog kernels at their reference geometry under fixed
    // constraints, so the simulated netlists — and with them the cost of an
    // episode — are the same for every seed. The seed draws the place seeds
    // and everything an episode does.
    const nx::NxDevice device = nx::make_device(hls::ng_ultra());
    const std::vector<apps::KernelSpec> catalog = apps::all_kernels();
    for (unsigned a = 0; a < catalog.size() * std::size(kBuilds); ++a) {
      KernelInstance kernel;
      kernel.spec = catalog[a % catalog.size()];
      kernel.flow.top = kernel.spec.name;
      const auto [period_ns, multipliers] = kBuilds[a / catalog.size()];
      kernel.flow.constraints.clock_period_ns = period_ns;
      kernel.flow.constraints.multipliers = multipliers;
      kernel.backend.target_period_ns = period_ns;
      kernel.backend.place.seed = mix_seed(seed_, 3, a);
      auto compiled = compile(kernel, device);
      if (!compiled.ok()) {
        setup_error_ = compiled.status().to_string();
        return;
      }
      Accelerator acc;
      acc.module = compiled.value().flow.fsmd.module;
      const nx::BackendResult& be = compiled.value().backend;
      acc.bitstream = be.bitstream;
      if (!expected_config_digest(acc.bitstream, &acc.config_digest)) {
        setup_error_ = "accelerator bitstream does not parse";
        return;
      }
      acc.fmax_mhz = be.timing.fmax_mhz;
      acc.hpwl = be.placement.hpwl;
      acc.luts = static_cast<double>(be.mapped.utilization.luts);
      accelerators_.push_back(std::move(acc));
    }
  }

  OpResult run_op(std::size_t index, Trace* trace) override {
    OpResult result;
    if (!setup_error_.empty()) {
      result.fail("setup", setup_error_);
      return result;
    }
    const Accelerator& acc = accelerators_[index % accelerators_.size()];
    Rng rng(mix_seed(seed_, 4, index));
    const fault::FaultPlan plan = fault::make_random_plan(rng.next_u64(), kQualPoints);
    BootMedia media = make_boot_media(rng);
    media.images[0] = acc.bitstream;
    fault::NetlistSeuPlan seu;
    seu.replicas = kReplicasPerBatch;
    seu.base_seed = rng.next_u64();
    seu.inputs = {{"start", 1}};

    OpClock clock(trace);
    std::optional<fault::FaultInjector> injector;
    std::optional<boot::BootEnvironment> env;
    {
      Span span(trace, "boot.env");
      injector.emplace(plan);
      env.emplace();
      env->attach_injector(&*injector);
    }
    {
      Span span(trace, "boot.stage");
      boot::stage_boot_media(*env, media.bl1, media.list, media.images);
    }
    boot::BootResult booted;
    {
      Span span(trace, "boot.chain");
      booted = boot::run_boot_chain(*env);
    }
    {
      Span span(trace, "fault.scrub");
      if (env->soc.efpga_programmed) {
        for (unsigned pass = 0; pass < kScrubPasses; ++pass) {
          (void)env->soc.scrub_efpga();
        }
      }
    }
    fault::NetlistSeuResult sliced;
    {
      Span span(trace, "fault.seu_batch");
      sliced = fault::run_netlist_seu_campaign_sliced(acc.module, seu, &pool_);
    }
    clock.stop();
    result.take_times(clock);

    // ---- output checks (untimed) ----
    // A boot that detects an injected corruption and refuses the image is a
    // correct outcome; success must come with every digest intact.
    bool recovered = false;
    if (booted.status.ok()) {
      if (booted.reached != boot::BootStage::kApplication) {
        result.fail("boot", "boot reported success before the application");
      } else if (!deployed_images_intact(*env, media)) {
        result.fail("deployed_image",
                    "silent corruption: deployed image digest differs");
      } else {
        recovered = true;
      }
    } else {
      const ErrorCode code = booted.status.code();
      if (code != ErrorCode::kIntegrityError &&
          code != ErrorCode::kDeadlineExceeded) {
        result.fail("boot_error", booted.status.to_string());
      }
    }
    if (env->soc.efpga_programmed &&
        env->soc.efpga_config_digest() != acc.config_digest) {
      result.fail("efpga_config", "silent corruption: eFPGA configuration differs");
    }
    if (env->soc.efpga_stats().scrub_silent != 0) {
      result.fail("scrub", "scrubber observed a silent miscorrection");
    }
    if (sliced.per_replica.size() != kReplicasPerBatch) {
      result.fail("seu_batch", "sliced SEU batch returned a short outcome vector");
    }
    if (mix_seed(seed_, 5, index) % kOracleEvery == 0) {
      const fault::NetlistSeuResult serial =
          fault::run_netlist_seu_campaign(acc.module, seu, &pool_);
      if (fault::fingerprint(serial) != fault::fingerprint(sliced)) {
        result.fail("seu_oracle",
                    "sliced SEU fingerprint differs from the serial oracle");
      }
    }
    if (trace != nullptr) {
      count_boot(*trace, booted, recovered && result.ok);
      trace->count("fault.injector_fires", static_cast<double>(injector->total_fires()));
      trace->count("fault.seu_replicas", static_cast<double>(seu.replicas));
      trace->count("fault.seu_diverged", static_cast<double>(sliced.diverged));
    }
    tally_.add(index, acc.fmax_mhz, acc.hpwl, acc.luts,
               static_cast<double>(acc.bitstream.size()));
    return result;
  }

  void quality_metrics(std::vector<Metric>& out) const override {
    tally_.append_to(out);
  }

 private:
  std::uint64_t seed_;
  ThreadPool pool_{0};  ///< explicit serial pool: never the process-wide one
  std::vector<Accelerator> accelerators_;
  std::string setup_error_;
  DesignTally tally_;
};

}  // namespace

std::unique_ptr<Workload> make_qual_campaign(std::uint64_t seed) {
  return std::make_unique<QualCampaign>(seed);
}

}  // namespace e2e
