// kernel_flow: the paper's developer path for one seeded app kernel —
// C source -> HLS -> NXmap (pack + self-verify) -> load list staged in flash
// -> BL0/BL1/BL2 boot programming the eFPGA -> accelerator co-simulation.
//
// Untraced ops call the library's composite entry points (hls::run_flow,
// nx::run_backend). Traced ops call the public sub-stages in the order those
// composites use them, one span per call, and then check that the netlist
// digest and the bitstream bytes equal what the composites produce, so the
// per-layer breakdown cannot drift from the program it describes.
#include <optional>

#include "frontend/parser.hpp"
#include "frontend/typecheck.hpp"
#include "harness.hpp"
#include "hls/testbench.hpp"
#include "hw/verilog.hpp"
#include "kernel_flow.hpp"
#include "nxmap/device.hpp"

namespace e2e {

using namespace hermes;

namespace {

constexpr std::uint64_t kMaxCosimCycles = 10'000'000;

std::string describe(const KernelInstance& kernel) {
  return kernel.spec.name + " " + std::to_string(kernel.spec.source.size()) +
         "B clock " + std::to_string(kernel.flow.constraints.clock_period_ns) +
         " ns, " + std::to_string(kernel.flow.constraints.multipliers) + " mul";
}

}  // namespace

Result<Compiled> compile_traced(const KernelInstance& kernel,
                                const nx::NxDevice& device, Trace* trace) {
  Compiled out;
  hls::FlowResult& flow = out.flow;

  // ---- hls::run_flow_schedule ----
  std::optional<fe::Program> program;
  {
    Span span(trace, "frontend.parse");
    auto parsed = fe::parse(kernel.spec.source);
    if (!parsed.ok()) return parsed.status();
    program.emplace(parsed.take());
  }
  {
    Span span(trace, "frontend.typecheck");
    Status typed = fe::typecheck(*program);
    if (!typed.ok()) return typed;
  }
  {
    Span span(trace, "ir.lower");
    ir::LowerOptions lower_options;
    lower_options.unroll_limit = kernel.flow.unroll_limit;
    auto lowered = ir::lower(*program, kernel.flow.top, lower_options);
    if (!lowered.ok()) return lowered.status();
    flow.function = lowered.take();
  }
  flow.ir_instrs_before = flow.function.instr_count();
  {
    Span span(trace, "ir.passes");
    flow.passes = ir::run_pipeline(flow.function);
    flow.ir_instrs_after = flow.function.instr_count();
    flow.cdfg = ir::summarize_cdfg(flow.function);
  }
  {
    Span span(trace, "hls.schedule");
    const hls::TechLibrary lib(kernel.flow.target);
    auto scheduled = hls::schedule(flow.function, lib, kernel.flow.constraints);
    if (!scheduled.ok()) return scheduled.status();
    flow.schedule = scheduled.take();
  }
  {
    Span span(trace, "hls.bind");
    flow.binding = hls::bind(flow.function, flow.schedule);
  }
  // ---- hls::finish_flow ----
  {
    Span span(trace, "hls.fsmd");
    auto fsmd = hls::generate_fsmd(flow.function, flow.schedule, flow.binding);
    if (!fsmd.ok()) return fsmd.status();
    flow.fsmd = fsmd.take();
    flow.fsm_states = flow.fsmd.num_states;
  }
  {
    Span span(trace, "hw.verilog");
    flow.verilog = hw::emit_verilog(flow.fsmd.module);
  }

  // ---- nx::run_backend_map ----
  nx::BackendResult& be = out.backend;
  hw::Module synthesized = flow.fsmd.module;
  out.cells = synthesized.stats().cells;
  {
    Span span(trace, "hw.sweep");
    out.cells_swept = hw::sweep_dead_cells(synthesized);
  }
  {
    Span span(trace, "nxmap.techmap");
    auto mapped = nx::techmap(synthesized, device);
    if (!mapped.ok()) return mapped.status();
    be.mapped = mapped.take();
  }
  {
    Span span(trace, "nxmap.place");
    be.placement = nx::place(synthesized, be.mapped, device, kernel.backend.place);
  }
  {
    Span span(trace, "nxmap.route");
    be.routing = nx::route(synthesized, be.mapped, be.placement, device,
                           kernel.backend.route);
  }
  {
    Span span(trace, "nxmap.sta");
    auto timing = nx::analyze_timing(synthesized, be.mapped, be.routing, device,
                                     kernel.backend.target_period_ns);
    if (!timing.ok()) return timing.status();
    be.timing = timing.take();
  }
  {
    Span span(trace, "nxmap.power");
    be.power = nx::estimate_power(be.mapped, device, be.timing.fmax_mhz);
  }
  // ---- nx::pack_backend ----
  {
    Span span(trace, "nxmap.pack");
    be.bitstream = nx::pack_bitstream(synthesized, be.mapped, be.placement, device);
  }
  {
    Span span(trace, "nxmap.verify");
    auto info = nx::verify_bitstream(be.bitstream);
    if (!info.ok()) return info.status();
    be.bitstream_info = info.take();
  }
  return out;
}

Result<Compiled> compile(const KernelInstance& kernel,
                         const nx::NxDevice& device) {
  Compiled out;
  auto flow = hls::run_flow(kernel.spec.source, kernel.flow);
  if (!flow.ok()) return flow.status();
  out.flow = flow.take();
  auto backend = nx::run_backend(out.flow.fsmd.module, device, kernel.backend);
  if (!backend.ok()) return backend.status();
  out.backend = backend.take();
  return out;
}

namespace {

class KernelFlow final : public Workload {
 public:
  explicit KernelFlow(std::uint64_t seed)
      : seed_(seed), device_(nx::make_device(hls::ng_ultra())) {
    // Warm-up: one compile of each catalog kernel, so the first timed op
    // does not pay for cold code paths and a cold allocator. The catalog
    // geometry makes the set-up the same work for every seed.
    for (const apps::KernelSpec& spec : apps::all_kernels()) {
      KernelInstance kernel;
      kernel.spec = spec;
      kernel.flow.top = spec.name;
      (void)compile(kernel, device_);
    }
  }

  OpResult run_op(std::size_t index, Trace* trace) override {
    OpResult result;
    Rng rng(mix_seed(seed_, 1, index));
    // Families take turns, so every run holds them in the same proportion.
    const KernelInstance kernel = draw_kernel(rng, index % kFamilies);
    BootMedia media = make_boot_media(rng);

    OpClock clock(trace);
    auto compiled = trace != nullptr ? compile_traced(kernel, device_, trace)
                                     : compile(kernel, device_);
    if (!compiled.ok()) {
      clock.stop();
      result.take_times(clock);
      result.fail("compile", compiled.status().to_string());
      return result;
    }
    const hls::FlowResult& flow = compiled.value().flow;
    const nx::BackendResult& be = compiled.value().backend;

    media.images[0] = be.bitstream;
    std::optional<boot::BootEnvironment> env;
    {
      Span span(trace, "boot.env");
      env.emplace();
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
    const auto inputs = draw_inputs(rng, flow);
    Result<hls::CosimResult> cosim = hls::CosimResult{};
    {
      Span span(trace, "hls.cosim");
      cosim = hls::cosimulate(flow, {}, inputs, kMaxCosimCycles);
    }
    clock.stop();
    result.take_times(clock);

    // ---- output checks (untimed) ----
    if (!nx::verify_bitstream(be.bitstream).ok()) {
      result.fail("bitstream", "bitstream fails verify_bitstream");
    }
    bool boot_ok = false;
    if (!booted.status.ok()) {
      result.fail("boot", booted.status.to_string());
    } else if (booted.reached != boot::BootStage::kApplication) {
      result.fail("boot", "boot stopped before the application");
    } else if (!deployed_images_intact(*env, media)) {
      result.fail("deployed_image",
                  "deployed image digest differs from the staged image");
    } else {
      boot_ok = true;
    }
    std::uint64_t expected = 0;
    if (!expected_config_digest(be.bitstream, &expected) ||
        env->soc.efpga_config_digest() != expected) {
      result.fail("efpga_config",
                  "eFPGA configuration differs from the packed bitstream");
      boot_ok = false;
    }
    if (!cosim.ok()) {
      result.fail("cosim", cosim.status().to_string());
    } else if (!cosim.value().match) {
      result.fail("cosim", "mismatch: " + cosim.value().mismatch + " (" +
                  describe(kernel) + ")");
    }
    if (trace != nullptr) {
      // The decomposition must be the library flow, byte for byte.
      auto reference = compile(kernel, device_);
      if (!reference.ok() ||
          reference.value().flow.fsmd.module.digest() != flow.fsmd.module.digest() ||
          reference.value().backend.bitstream != be.bitstream) {
        result.fail("decomposition",
                    "traced decomposition differs from run_flow/run_backend");
      }
      trace->count("ir.instrs_before", static_cast<double>(flow.ir_instrs_before));
      trace->count("ir.instrs_after", static_cast<double>(flow.ir_instrs_after));
      trace->count("hls.fsm_states", flow.fsm_states);
      trace->count("hw.cells", static_cast<double>(compiled.value().cells));
      trace->count("hw.cells_swept", static_cast<double>(compiled.value().cells_swept));
      trace->count("nxmap.hpwl", be.placement.hpwl);
      trace->count("nxmap.luts", static_cast<double>(be.mapped.utilization.luts));
      if (cosim.ok()) {
        trace->count("hls.accel_cycles", static_cast<double>(cosim.value().hw_cycles));
      }
      count_boot(*trace, booted, boot_ok);
    }
    tally_.add(index, be.timing.fmax_mhz, be.placement.hpwl,
               static_cast<double>(be.mapped.utilization.luts),
               static_cast<double>(be.bitstream.size()));
    return result;
  }

  void quality_metrics(std::vector<Metric>& out) const override {
    tally_.append_to(out);
  }

 private:
  std::uint64_t seed_;
  nx::NxDevice device_;
  DesignTally tally_;
};

}  // namespace

void count_boot(Trace& trace, const boot::BootResult& booted, bool recovered) {
  const boot::BootReport& report = booted.report;
  trace.count("boot.episodes", 1);
  trace.count("boot.recovered", recovered ? 1 : 0);
  trace.count("boot.sim_cycles", static_cast<double>(report.total_cycles));
  trace.count("boot.flash_corrected_bytes",
              static_cast<double>(report.flash_corrected_bytes));
  trace.count("boot.integrity_retries", static_cast<double>(report.integrity_retries));
  trace.count("boot.spw_fallbacks", static_cast<double>(report.spw_fallbacks));
  trace.count("boot.efpga_frame_rewrites",
              static_cast<double>(report.efpga_frame_rewrites));
  trace.count("boot.efpga_scrub_corrections",
              static_cast<double>(report.efpga_scrub_corrections));
}

std::unique_ptr<Workload> make_kernel_flow(std::uint64_t seed) {
  return std::make_unique<KernelFlow>(seed);
}

}  // namespace e2e
