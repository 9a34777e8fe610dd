#include "nxmap/flow.hpp"

#include <cmath>
#include <sstream>

#include "common/strings.hpp"

namespace hermes::nx {

Result<MapResult> run_backend_map(const hw::Module& module,
                                  const NxDevice& device,
                                  const BackendOptions& options) {
  const double capacity = options.route.channel_capacity;
  if (!std::isfinite(capacity) || capacity <= 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "channel capacity must be finite and positive");
  }
  MapResult result;
  auto mapped = techmap(module, device);
  if (!mapped.ok()) return mapped.status();
  result.mapped = mapped.take();

  result.placement = place(module, result.mapped, device, options.place);
  result.routing =
      route(module, result.mapped, result.placement, device, options.route);
  auto timing = analyze_timing(module, result.mapped, result.routing, device,
                               options.target_period_ns);
  if (!timing.ok()) return timing.status();
  result.timing = timing.take();
  result.power = estimate_power(result.mapped, device, result.timing.fmax_mhz);
  return result;
}

Result<PackResult> pack_backend(const MapResult& map, const hw::Module& module,
                               const NxDevice& device) {
  PackResult result;
  result.bitstream = pack_bitstream(module, map.mapped, map.placement, device);
  // Pack self-check: the image BL1 will program must verify here first.
  auto info = verify_bitstream(result.bitstream);
  if (!info.ok()) {
    return Status::Error(ErrorCode::kInternal,
                         "packed bitstream failed self-verification: " +
                             info.status().to_string());
  }
  result.bitstream_info = info.take();
  return result;
}

Result<BackendResult> run_backend(const hw::Module& module,
                                  const NxDevice& device,
                                  const BackendOptions& options) {
  auto map = run_backend_map(module, device, options);
  if (!map.ok()) return map.status();
  auto pack = pack_backend(map.value(), module, device);
  if (!pack.ok()) return pack.status();
  return BackendResult{map.take(), pack.take()};
}

std::string backend_report(const BackendResult& result, const NxDevice& device) {
  std::ostringstream out;
  const Utilization& u = result.mapped.utilization;
  out << "=== NXmap backend report (" << device.name << ") ===\n";
  out << format("utilization : %zu LUT (%.2f%%), %zu FF, %zu DSP (%.2f%%), %zu BRAM (%.2f%%)\n",
                u.luts, u.lut_pct, u.ffs, u.dsps, u.dsp_pct, u.brams, u.bram_pct);
  out << format("placement   : HPWL %.1f tiles (region %ux%u), overflow %.1f\n",
                result.placement.hpwl, result.placement.grid_side,
                result.placement.grid_side, result.placement.overflow);
  out << format("routing     : %.1f tile-hops, peak congestion %.2f, %.1f%% tiles congested\n",
                result.routing.total_wirelength, result.routing.max_congestion,
                result.routing.congested_tiles_pct);
  out << format("timing      : critical path %.2f ns -> Fmax %.1f MHz",
                result.timing.critical_path_ns, result.timing.fmax_mhz);
  if (result.timing.target_period_ns > 0) {
    out << format(" (target %.2f ns: %s, slack %.2f ns)",
                  result.timing.target_period_ns,
                  result.timing.meets_target ? "MET" : "VIOLATED",
                  result.timing.slack_ns);
  }
  out << '\n';
  out << format("power       : %.1f mW static + %.1f mW dynamic = %.1f mW @ %.1f MHz\n",
                result.power.static_mw, result.power.dynamic_mw,
                result.power.total_mw, result.power.freq_mhz);
  out << format("bitstream   : %zu bytes\n", result.bitstream.size());
  return out.str();
}

}  // namespace hermes::nx
