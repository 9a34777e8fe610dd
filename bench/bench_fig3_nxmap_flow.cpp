// FIG3 — the NXmap design flow (paper Fig. 3: logic synthesis -> place ->
// route -> STA -> bitstream).
//
// Pushes HLS-generated netlists of the use-case kernels through the full
// backend and reports the per-stage products: mapped resources, placement
// wirelength, routing congestion, Fmax, bitstream size.
#include <benchmark/benchmark.h>

#include "apps/kernels.hpp"
#include "hls/flow.hpp"
#include "nxmap/flow.hpp"

namespace {

using namespace hermes;

void BM_NxmapBackend(benchmark::State& state) {
  static const std::vector<apps::KernelSpec> kernels = apps::all_kernels();
  const apps::KernelSpec& spec = kernels[state.range(0) % kernels.size()];
  state.SetLabel(spec.name);

  hls::FlowOptions options;
  options.top = spec.name;
  auto flow = hls::run_flow(spec.source, options);
  if (!flow.ok()) {
    state.SkipWithError(flow.status().to_string().c_str());
    return;
  }
  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  nx::BackendOptions backend_options;
  backend_options.target_period_ns = options.constraints.clock_period_ns;

  nx::BackendResult result;
  for (auto _ : state) {
    auto backend = nx::run_backend(flow.value().fsmd.module, device,
                                   backend_options);
    if (backend.ok()) result = backend.take();
    benchmark::ClobberMemory();
  }
  state.counters["luts"] = static_cast<double>(result.mapped.utilization.luts);
  state.counters["dsps"] = static_cast<double>(result.mapped.utilization.dsps);
  state.counters["brams"] = static_cast<double>(result.mapped.utilization.brams);
  state.counters["hpwl"] = result.placement.hpwl;
  state.counters["wirelength"] = result.routing.total_wirelength;
  state.counters["congestion"] = result.routing.max_congestion;
  state.counters["fmax_mhz"] = result.timing.fmax_mhz;
  state.counters["timing_met"] = result.timing.meets_target ? 1 : 0;
  state.counters["bitstream_kb"] =
      static_cast<double>(result.bitstream.size()) / 1024.0;
}
BENCHMARK(BM_NxmapBackend)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Placement effort sweep: annealing rounds vs achieved wirelength (the
/// quality/runtime trade of the "place" stage).
void BM_PlacementEffort(benchmark::State& state) {
  const unsigned effort = static_cast<unsigned>(state.range(0));
  const apps::KernelSpec spec = apps::fir_kernel();
  hls::FlowOptions options;
  options.top = spec.name;
  auto flow = hls::run_flow(spec.source, options);
  if (!flow.ok()) {
    state.SkipWithError("flow failed");
    return;
  }
  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  auto mapped = nx::techmap(flow.value().fsmd.module, device);
  if (!mapped.ok()) {
    state.SkipWithError("techmap failed");
    return;
  }
  nx::PlaceOptions place_options;
  place_options.iterations_per_instance = effort;
  nx::Placement placement;
  for (auto _ : state) {
    placement = nx::place(flow.value().fsmd.module, mapped.value(), device,
                          place_options);
    benchmark::ClobberMemory();
  }
  state.counters["hpwl"] = placement.hpwl;
  state.counters["overflow"] = placement.overflow;
}
BENCHMARK(BM_PlacementEffort)->Arg(0)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
