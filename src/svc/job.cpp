#include "svc/job.hpp"

namespace hermes::svc {

namespace {

// Domain tags keep the four key spaces disjoint even for identical inputs.
constexpr std::uint64_t kTagCharacterize = 0x48455243u;  // "HERC"
constexpr std::uint64_t kTagSchedule = 0x48455253u;      // "HERS"
constexpr std::uint64_t kTagMap = 0x4845524Du;           // "HERM"
constexpr std::uint64_t kTagBitstream = 0x48455242u;     // "HERB"

/// Every FpgaTarget field: the target IS the device model (make_device
/// derives the NxDevice from it), so timing, resource and power knobs all
/// reach mapping, STA and power estimation.
void mix_target(KeyBuilder& key, const hls::FpgaTarget& target) {
  key.str(target.name)
      .f64(target.lut_delay_ns)
      .f64(target.routing_delay_ns)
      .f64(target.carry_per_bit_ns)
      .f64(target.carry_base_ns)
      .f64(target.dsp_delay_ns)
      .f64(target.bram_access_ns)
      .f64(target.ff_setup_ns)
      .f64(target.clock_skew_ns)
      .u64(target.lut_inputs)
      .u64(target.dsp_mul_width)
      .u64(target.luts)
      .u64(target.dsps)
      .u64(target.brams)
      .u64(target.bram_kbits)
      .f64(target.static_power_mw)
      .f64(target.lut_dyn_uw_per_mhz)
      .f64(target.dsp_dyn_uw_per_mhz)
      .f64(target.bram_dyn_uw_per_mhz)
      .f64(target.ff_dyn_uw_per_mhz);
}

void mix_constraints(KeyBuilder& key, const hls::Constraints& constraints) {
  key.f64(constraints.clock_period_ns)
      .u64(constraints.multipliers)
      .u64(constraints.dividers)
      .u64(constraints.allow_chaining ? 1 : 0)
      .u64(constraints.enforce_resources ? 1 : 0)
      .u64(constraints.merge_registers ? 1 : 0);
}

void mix_flow_options(KeyBuilder& key, const hls::FlowOptions& options) {
  key.str(options.top);
  mix_constraints(key, options.constraints);
  key.u64(options.unroll_limit).u64(options.run_middle_end ? 1 : 0);
  mix_target(key, options.target);
}

void mix_backend_options(KeyBuilder& key, const nx::BackendOptions& options) {
  key.f64(options.target_period_ns)
      .u64(options.place.iterations_per_instance)
      .f64(options.place.initial_temp)
      .f64(options.place.cooling)
      .u64(options.place.seed)
      .f64(options.route.channel_capacity);
}

}  // namespace

std::uint64_t characterize_key(const hls::FpgaTarget& target,
                               const hls::SweepConfig& sweep) {
  KeyBuilder key(kTagCharacterize);
  mix_target(key, target);
  key.u64(sweep.ops.size());
  for (const ir::Op op : sweep.ops) key.u64(static_cast<std::uint64_t>(op));
  key.u64(sweep.widths.size());
  for (const unsigned width : sweep.widths) key.u64(width);
  key.u64(sweep.pipeline_stages.size());
  for (const unsigned stages : sweep.pipeline_stages) key.u64(stages);
  key.u64(sweep.clock_periods_ns.size());
  for (const double period : sweep.clock_periods_ns) key.f64(period);
  return key.digest();
}

std::uint64_t schedule_key(std::string_view source,
                           const hls::FlowOptions& options) {
  KeyBuilder key(kTagSchedule);
  key.str(source);
  mix_flow_options(key, options);
  return key.digest();
}

std::uint64_t map_key(std::uint64_t module_digest,
                      const hls::FpgaTarget& target,
                      const nx::BackendOptions& options) {
  KeyBuilder key(kTagMap);
  key.u64(module_digest);
  mix_target(key, target);
  mix_backend_options(key, options);
  return key.digest();
}

std::uint64_t bitstream_key(std::uint64_t map_stage_key) {
  return KeyBuilder(kTagBitstream).u64(map_stage_key).digest();
}

std::uint64_t CompileOutcome::fingerprint() const {
  KeyBuilder key(0x4845524Fu);  // "HERO" — outcome domain
  key.u64(static_cast<std::uint64_t>(status.code()));
  key.u64(characterization_points);
  key.u64(netlist_digest);
  key.u64(fsm_states);
  key.f64(timing.critical_path_ns);
  key.f64(timing.fmax_mhz);
  key.u64(timing.meets_target ? 1 : 0);
  key.f64(timing.slack_ns);
  key.f64(power_total_mw);
  key.str(std::string_view(reinterpret_cast<const char*>(bitstream.data()),
                           bitstream.size()));
  return key.digest();
}

namespace cost {

std::uint64_t characterize(std::size_t grid_points) {
  return 4 * static_cast<std::uint64_t>(grid_points);
}

std::uint64_t schedule(std::size_t source_bytes, const hls::FlowResult& flow) {
  return source_bytes / 4 + 4 * flow.ir_instrs_after +
         2 * flow.schedule.num_states + flow.fsmd.module.cells().size();
}

std::uint64_t map(const hw::Module& module, const nx::MapResult& map) {
  return 8 * module.cells().size() + map.mapped.utilization.luts;
}

std::uint64_t bitstream(std::size_t image_bytes) {
  return image_bytes / 16 + 1;
}

}  // namespace cost

}  // namespace hermes::svc
