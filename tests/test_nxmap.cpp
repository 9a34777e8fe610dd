// Tests for the NXmap backend: device model, tech mapping, placement,
// routing, STA, bitstream and power — ending with the paper's 2x-speed /
// 4x-power claim measured end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "apps/kernels.hpp"
#include "hls/flow.hpp"
#include "netlist_fuzz.hpp"
#include "nxmap/flow.hpp"
#include "common/rng.hpp"

namespace hermes::nx {
namespace {

hw::Module small_design() {
  hw::Module m("dp");
  const hw::WireId a = m.add_wire(32, "a");
  const hw::WireId b = m.add_wire(32, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const hw::WireId sum = m.make_binop(hw::CellKind::kAdd, a, b, 32, "sum");
  const hw::WireId prod = m.make_binop(hw::CellKind::kMul, a, b, 32, "prod");
  const hw::WireId mix = m.make_binop(hw::CellKind::kXor, sum, prod, 32, "mix");
  const hw::WireId en = m.make_const(1, 1);
  const hw::WireId q = m.make_register(mix, en, 0, "q");
  m.add_output(q, "q");
  return m;
}

TEST(Device, NgUltraInventory) {
  const NxDevice device = make_device(hls::ng_ultra());
  EXPECT_GE(device.total_luts(), 550'000u);  // paper: 550k LUTs
  EXPECT_GT(device.rows, 0u);
  const std::string inventory = device_inventory(device);
  EXPECT_NE(inventory.find("NG-ULTRA"), std::string::npos);
  EXPECT_NE(inventory.find("DSP"), std::string::npos);
}

TEST(Techmap, MapsCellsAndCountsResources) {
  const NxDevice device = make_device(hls::ng_ultra());
  auto mapped = techmap(small_design(), device);
  ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
  const Utilization& util = mapped.value().utilization;
  EXPECT_GT(util.luts, 0u);
  EXPECT_GT(util.dsps, 0u);  // 32-bit multiplier needs composed DSPs
  EXPECT_GT(util.ffs, 0u);
  EXPECT_GT(util.lut_pct, 0.0);
  EXPECT_LT(util.lut_pct, 1.0);  // tiny design on a 550k device
}

TEST(Techmap, MemoriesBecomeBrams) {
  hw::Module m("memy");
  hw::Memory mem;
  mem.name = "big";
  mem.width = 32;
  mem.depth = 4096;  // 128 kbit -> 3 blocks of 48 kbit
  m.add_memory(mem);
  const NxDevice device = make_device(hls::ng_ultra());
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().utilization.brams, 3u);
}

TEST(Techmap, RejectsOversizedDesign) {
  // A fabricated device with almost no LUTs.
  hls::FpgaTarget tiny = hls::ng_ultra();
  tiny.luts = 16;
  const NxDevice device = make_device(tiny);
  auto mapped = techmap(small_design(), device);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), ErrorCode::kResourceExhausted);
}

TEST(Place, LegalAndDeterministic) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement p1 = place(m, mapped.value(), device);
  const Placement p2 = place(m, mapped.value(), device);
  EXPECT_EQ(p1.location, p2.location) << "placement must be deterministic";
  EXPECT_GT(p1.grid_side, 0u);
  for (const auto& [x, y] : p1.location) {
    EXPECT_LT(x, p1.grid_side);
    EXPECT_LT(y, p1.grid_side);
  }
}

TEST(Place, AnnealingImprovesOnRandom) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  PlaceOptions no_anneal;
  no_anneal.iterations_per_instance = 0;  // random initial placement only
  const Placement random = place(m, mapped.value(), device, no_anneal);
  const Placement annealed = place(m, mapped.value(), device);
  EXPECT_LE(annealed.hpwl, random.hpwl);
}

// The annealing loop as it was before incremental costs: every move
// recomputes the HPWL of each net on the moved instance (once per pin it
// has there) before and after the move. nx::place must reproduce it exactly.
Placement reference_place(const hw::Module& module, const MappedDesign& design,
                          const NxDevice& device, const PlaceOptions& options) {
  Placement placement;
  const std::size_t n = design.instances.size();
  placement.location.resize(n);

  std::size_t area_luts = 0;
  for (const MappedInstance& inst : design.instances) {
    area_luts += std::max<unsigned>(inst.luts + inst.ffs / 4, 1);
  }
  const unsigned needed_tiles = static_cast<unsigned>(
      (area_luts + device.luts_per_tile - 1) / device.luts_per_tile);
  unsigned side = static_cast<unsigned>(
      std::ceil(std::sqrt(static_cast<double>(needed_tiles) * 3.5)));
  side = std::max(side, 2u);
  side = std::min(side, std::min(device.rows, device.cols));
  placement.grid_side = side;

  Rng rng(options.seed);
  for (std::size_t i = 0; i < n; ++i) {
    placement.location[i] = {static_cast<unsigned>(rng.next_below(side)),
                             static_cast<unsigned>(rng.next_below(side))};
  }

  // One net per driven wire: driver first, then one pin per consuming input.
  std::vector<std::vector<std::size_t>> nets;
  std::map<hw::WireId, std::size_t> net_of_wire;
  for (std::size_t c = 0; c < module.cells().size(); ++c) {
    for (hw::WireId wire : module.cells()[c].inputs) {
      const std::size_t driver = design.driver_of_wire[wire];
      if (driver == SIZE_MAX) continue;
      auto it = net_of_wire.find(wire);
      if (it == net_of_wire.end()) {
        nets.push_back({driver});
        it = net_of_wire.emplace(wire, nets.size() - 1).first;
      }
      nets[it->second].push_back(c);
    }
  }
  std::vector<std::vector<std::size_t>> nets_of_instance(n);
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    for (std::size_t pin : nets[ni]) nets_of_instance[pin].push_back(ni);
  }
  auto net_hpwl = [&](const std::vector<std::size_t>& net) {
    unsigned min_x = ~0u, max_x = 0, min_y = ~0u, max_y = 0;
    for (std::size_t pin : net) {
      const auto [x, y] = placement.location[pin];
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
    return static_cast<double>(max_x - min_x) + static_cast<double>(max_y - min_y);
  };

  std::vector<double> tile_usage(static_cast<std::size_t>(side) * side, 0.0);
  auto tile_index = [&](unsigned x, unsigned y) {
    return static_cast<std::size_t>(y) * side + x;
  };
  auto inst_area = [&](std::size_t i) {
    const MappedInstance& inst = design.instances[i];
    return static_cast<double>(std::max<unsigned>(inst.luts + inst.ffs / 4, 1));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const auto [x, y] = placement.location[i];
    tile_usage[tile_index(x, y)] += inst_area(i);
  }
  const double capacity = device.luts_per_tile;
  auto overflow_at = [&](std::size_t tile) {
    const double over = tile_usage[tile] - capacity;
    return over > 0 ? over * over : 0.0;
  };
  auto cost_of_nets = [&](const std::vector<std::size_t>& net_ids) {
    double cost = 0;
    for (std::size_t ni : net_ids) cost += net_hpwl(nets[ni]);
    return cost;
  };

  double temperature = options.initial_temp;
  const std::size_t moves_per_round = std::max<std::size_t>(n, 16);
  for (unsigned round = 0; round < options.iterations_per_instance; ++round) {
    for (std::size_t move = 0; move < moves_per_round; ++move) {
      const std::size_t i = rng.next_below(n);
      const auto old_loc = placement.location[i];
      const unsigned nx = static_cast<unsigned>(rng.next_below(side));
      const unsigned ny = static_cast<unsigned>(rng.next_below(side));
      if (nx == old_loc.first && ny == old_loc.second) continue;

      const std::size_t old_tile = tile_index(old_loc.first, old_loc.second);
      const std::size_t new_tile = tile_index(nx, ny);
      const double area = inst_area(i);
      const double before = cost_of_nets(nets_of_instance[i]) +
                            overflow_at(old_tile) + overflow_at(new_tile);
      placement.location[i] = {nx, ny};
      tile_usage[old_tile] -= area;
      tile_usage[new_tile] += area;
      const double after = cost_of_nets(nets_of_instance[i]) +
                           overflow_at(old_tile) + overflow_at(new_tile);
      const double delta = after - before;
      const bool accept =
          delta <= 0 || rng.next_double() < std::exp(-delta / temperature);
      if (!accept) {
        placement.location[i] = old_loc;
        tile_usage[old_tile] += area;
        tile_usage[new_tile] -= area;
      }
    }
    temperature *= options.cooling;
  }

  placement.hpwl = 0;
  for (const auto& net : nets) placement.hpwl += net_hpwl(net);
  placement.overflow = 0;
  for (double usage : tile_usage) {
    if (usage > capacity) placement.overflow += usage - capacity;
  }
  return placement;
}

/// Every option combination the oracle comparison sweeps.
std::vector<PlaceOptions> oracle_option_grid() {
  std::vector<PlaceOptions> grid;
  for (std::uint64_t seed : {7ULL, 11ULL, 12345ULL}) {
    for (unsigned iterations : {0u, 8u, 64u}) {
      for (double cooling : {0.92, 0.5}) {
        for (double initial_temp : {10.0, 0.5}) {
          PlaceOptions options;
          options.seed = seed;
          options.iterations_per_instance = iterations;
          options.cooling = cooling;
          options.initial_temp = initial_temp;
          grid.push_back(options);
        }
      }
    }
  }
  return grid;
}

void expect_matches_reference(const hw::Module& module, const NxDevice& device,
                              const PlaceOptions& options,
                              const std::string& label) {
  auto mapped = techmap(module, device);
  ASSERT_TRUE(mapped.ok()) << label << ": " << mapped.status().to_string();
  const Placement got = place(module, mapped.value(), device, options);
  const Placement want = reference_place(module, mapped.value(), device, options);
  const std::string where =
      label + " seed=" + std::to_string(options.seed) +
      " iters=" + std::to_string(options.iterations_per_instance) +
      " cooling=" + std::to_string(options.cooling) +
      " t0=" + std::to_string(options.initial_temp);
  EXPECT_EQ(got.location, want.location) << where;
  EXPECT_EQ(got.hpwl, want.hpwl) << where;
  EXPECT_EQ(got.overflow, want.overflow) << where;
  EXPECT_EQ(got.grid_side, want.grid_side) << where;
}

/// A fuzz netlist plus the pin patterns the incremental cost must weight:
/// one cell reading a wire on both inputs, a register feeding itself, and a
/// net with fanout above 64.
hw::Module oracle_fuzz_design(Rng& rng, int index) {
  hw::fuzz::RandomDesign design =
      hw::fuzz::make_random_design(rng, index, "place_oracle");
  hw::Module& m = design.module;
  const hw::WireId a = m.port_wire("in0");
  const hw::WireId b = m.port_wire("in1");
  const hw::WireId hub = m.make_binop(hw::CellKind::kXor, a, b, 16, "hub");
  const hw::WireId twice = m.make_binop(hw::CellKind::kAdd, hub, hub, 16, "twice");
  m.add_output(twice, "twice");
  const hw::WireId q = m.add_wire(16, "self_q");
  hw::Cell self_loop;
  self_loop.kind = hw::CellKind::kRegister;
  self_loop.inputs = {q, m.port_wire("en0")};
  self_loop.outputs = {q};
  m.add_cell(std::move(self_loop));
  m.add_output(q, "self_q");
  for (int i = 0; i < 70; ++i) {
    m.add_output(m.make_binop(hw::CellKind::kAnd, hub, q, 16),
                 "fan" + std::to_string(i));
  }
  return std::move(design.module);
}

TEST(Place, MatchesFullRecomputeOracle) {
  const NxDevice device = make_device(hls::ng_ultra());
  const std::vector<PlaceOptions> grid = oracle_option_grid();
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    hls::FlowOptions flow_options;
    flow_options.top = kernel.name;
    auto flow = hls::run_flow(kernel.source, flow_options);
    ASSERT_TRUE(flow.ok()) << kernel.name;
    const hw::Module& module = flow.value().fsmd.module;
    for (const PlaceOptions& options : grid) {
      expect_matches_reference(module, device, options, kernel.name);
    }
  }
  Rng rng(0x9ace);
  for (int index = 0; index < 8; ++index) {
    const hw::Module module = oracle_fuzz_design(rng, index);
    for (const PlaceOptions& options : grid) {
      expect_matches_reference(module, device, options,
                               "fuzz" + std::to_string(index));
    }
  }
}

TEST(Place, EmptyDesignPlacesWithoutMoves) {
  // No instance to move: annealing must not draw a move index from [0, 0).
  const NxDevice device = make_device(hls::ng_ultra());
  auto backend = run_backend(hw::Module("empty"), device);
  ASSERT_TRUE(backend.ok()) << backend.status().to_string();
  EXPECT_TRUE(backend.value().placement.location.empty());
  EXPECT_EQ(backend.value().placement.hpwl, 0.0);
}

TEST(Route, DelaysAndWirelengthPopulated) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);
  const Routing routing = route(m, mapped.value(), placement, device);
  EXPECT_EQ(routing.wire_delay_ns.size(), m.wire_count());
  bool any_delay = false;
  for (double d : routing.wire_delay_ns) {
    EXPECT_GE(d, 0.0);
    if (d > 0) any_delay = true;
  }
  EXPECT_TRUE(any_delay);
}

TEST(Sta, ReportsCriticalPathAndChecksTarget) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);
  const Routing routing = route(m, mapped.value(), placement, device);

  auto relaxed = analyze_timing(m, mapped.value(), routing, device, 100.0);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_GT(relaxed.value().critical_path_ns, 0.0);
  EXPECT_TRUE(relaxed.value().meets_target);
  EXPECT_FALSE(relaxed.value().critical_path.empty());

  auto impossible = analyze_timing(m, mapped.value(), routing, device, 0.01);
  ASSERT_TRUE(impossible.ok());
  EXPECT_FALSE(impossible.value().meets_target);
  EXPECT_LT(impossible.value().slack_ns, 0.0);
}

TEST(Bitstream, PacksAndVerifies) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);
  const auto image = pack_bitstream(m, mapped.value(), placement, device);
  EXPECT_GT(image.size(), 32u);
  auto info = verify_bitstream(image);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_GT(info.value().frames, 0u);
}

TEST(Bitstream, DetectsEveryInjectedCorruption) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);
  const auto image = pack_bitstream(m, mapped.value(), placement, device);

  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = image;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_FALSE(verify_bitstream(corrupted).ok()) << "trial " << trial;
  }
  // Truncation is also detected.
  auto truncated = image;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(verify_bitstream(truncated).ok());
}

TEST(Power, ScalesWithFrequency) {
  const NxDevice device = make_device(hls::ng_ultra());
  auto mapped = techmap(small_design(), device);
  ASSERT_TRUE(mapped.ok());
  const PowerReport slow = estimate_power(mapped.value(), device, 50.0);
  const PowerReport fast = estimate_power(mapped.value(), device, 200.0);
  EXPECT_GT(fast.dynamic_mw, slow.dynamic_mw);
  EXPECT_DOUBLE_EQ(fast.static_mw, slow.static_mw);
}

TEST(Backend, FullFlowOnHlsOutput) {
  const char* source = R"(
    int mac(int a[16], int b[16]) {
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
      return acc;
    }
  )";
  hls::FlowOptions options;
  options.top = "mac";
  auto flow = hls::run_flow(source, options);
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();

  const NxDevice device = make_device(hls::ng_ultra());
  BackendOptions backend_options;
  backend_options.target_period_ns = options.constraints.clock_period_ns;
  auto backend = run_backend(flow.value().fsmd.module, device, backend_options);
  ASSERT_TRUE(backend.ok()) << backend.status().to_string();
  EXPECT_GT(backend.value().mapped.utilization.luts, 0u);
  EXPECT_GT(backend.value().timing.fmax_mhz, 0.0);
  EXPECT_FALSE(backend.value().bitstream.empty());
  const std::string report = backend_report(backend.value(), device);
  EXPECT_NE(report.find("utilization"), std::string::npos);
  EXPECT_NE(report.find("Fmax"), std::string::npos);
}

// ---- one live netlist from HLS to bitstream ----

// Census: the catalog × multipliers {1, 2, 4, 8} × clocks {6.25, 8, 10,
// 12.5} ns × register merging on and off, 160 points.
TEST(LiveNetlist, GeneratedFsmdHasNothingToSweep) {
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    for (unsigned multipliers : {1u, 2u, 4u, 8u}) {
      for (double period : {6.25, 8.0, 10.0, 12.5}) {
        for (bool merge : {true, false}) {
          hls::FlowOptions options;
          options.top = kernel.name;
          options.constraints.multipliers = multipliers;
          options.constraints.clock_period_ns = period;
          options.constraints.merge_registers = merge;
          const std::string label = kernel.name + " mul" +
                                    std::to_string(multipliers) + " " +
                                    std::to_string(period) + "ns merge " +
                                    std::to_string(merge);
          auto flow = hls::run_flow(kernel.source, options);
          ASSERT_TRUE(flow.ok()) << label << ": " << flow.status().to_string();
          const hw::Module& fsmd = flow.value().fsmd.module;
          hw::Module swept = fsmd;
          EXPECT_EQ(hw::sweep_dead_cells(swept), 0u) << label;
          EXPECT_EQ(swept.wire_count(), fsmd.wire_count()) << label;
        }
      }
    }
  }
}

TEST(LiveNetlist, BackendSynthesizesTheFsmdUnchanged) {
  const NxDevice device = make_device(hls::ng_ultra());
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    hls::FlowOptions options;
    options.top = kernel.name;
    auto flow = hls::run_flow(kernel.source, options);
    ASSERT_TRUE(flow.ok()) << kernel.name;
    auto mapped = run_backend_map(flow.value().fsmd.module, device);
    ASSERT_TRUE(mapped.ok()) << kernel.name;
    EXPECT_EQ(mapped.value().synthesized.digest(),
              flow.value().fsmd.module.digest())
        << kernel.name;
  }
}

TEST(ClaimSpeedPower, NgUltraVsLegacyRadHard) {
  // The paper's headline: "550k LUTs running twice as fast as current
  // rad-hard FPGAs with a power consumption four times smaller". Run the
  // same design through both device models and measure the ratios.
  const hw::Module m = small_design();
  const NxDevice ng = make_device(hls::ng_ultra());
  const NxDevice legacy = make_device(hls::legacy_radhard());

  auto ng_backend = run_backend(m, ng);
  auto legacy_backend = run_backend(m, legacy);
  ASSERT_TRUE(ng_backend.ok());
  ASSERT_TRUE(legacy_backend.ok());

  const double speed_ratio =
      ng_backend.value().timing.fmax_mhz / legacy_backend.value().timing.fmax_mhz;
  EXPECT_GT(speed_ratio, 1.6);
  EXPECT_LT(speed_ratio, 2.5);

  // Compare dynamic power at the same operating frequency.
  const double f = legacy_backend.value().timing.fmax_mhz;
  const PowerReport ng_power = estimate_power(ng_backend.value().mapped, ng, f);
  const PowerReport legacy_power =
      estimate_power(legacy_backend.value().mapped, legacy, f);
  const double power_ratio = legacy_power.dynamic_mw / ng_power.dynamic_mw;
  EXPECT_GT(power_ratio, 3.5);
  EXPECT_LT(power_ratio, 4.5);
}

}  // namespace
}  // namespace hermes::nx

// Detailed (PathFinder) router tests appended as a separate suite.
namespace hermes::nx {
namespace {

TEST(DetailedRoute, ConvergesOnKernelNetlist) {
  hls::FlowOptions options;
  options.top = "mac";
  auto flow = hls::run_flow(R"(
    int mac(int a[16], int b[16]) {
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
      return acc;
    }
  )", options);
  ASSERT_TRUE(flow.ok());
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module& m = flow.value().fsmd.module;
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);

  const DetailedRouteResult routed =
      detailed_route(m, mapped.value(), placement, device);
  EXPECT_TRUE(routed.converged) << routed.overused_tiles << " overused tiles";
  EXPECT_EQ(routed.overused_tiles, 0u);
  EXPECT_GT(routed.total_tree_nodes, 0u);
  EXPECT_GE(routed.iterations, 1u);

  // Routed wirelength can never beat the half-perimeter lower bound.
  const Routing estimate = route(m, mapped.value(), placement, device);
  EXPECT_GE(routed.routing.total_wirelength, placement.hpwl * 0.99);
  // Every wire the estimator priced is also embedded.
  for (hw::WireId w = 0; w < m.wire_count(); ++w) {
    if (estimate.wire_delay_ns[w] > 0) {
      EXPECT_GT(routed.routing.wire_delay_ns[w], 0.0) << "wire " << w;
    }
  }
}

TEST(DetailedRoute, NegotiationResolvesArtificialScarcity) {
  // Squeeze the channel capacity until the first iteration overflows; the
  // negotiation must still spread nets and converge (or at least shrink the
  // overuse monotonically to a small residue).
  hls::FlowOptions options;
  options.top = "f";
  auto flow = hls::run_flow(
      "int f(int a, int b, int c) { return a * b + b * c + a * c; }", options);
  ASSERT_TRUE(flow.ok());
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module& m = flow.value().fsmd.module;
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);

  DetailedRouteOptions tight;
  tight.channel_capacity = 40.0;
  tight.max_iterations = 32;
  const DetailedRouteResult routed =
      detailed_route(m, mapped.value(), placement, device, tight);
  EXPECT_GT(routed.iterations, 1u) << "scarcity must trigger negotiation";
  EXPECT_LE(routed.routing.max_congestion, 2.0)
      << "negotiation must spread the hotspots (first-iteration hotspots on "
         "this design exceed 4x capacity)";
}

TEST(DetailedRoute, BackendIntegration) {
  hw::Module m("dp2");
  const hw::WireId a = m.add_wire(32, "a");
  const hw::WireId b = m.add_wire(32, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const hw::WireId s = m.make_binop(hw::CellKind::kAdd, a, b, 32, "s");
  const hw::WireId p = m.make_binop(hw::CellKind::kMul, a, s, 32, "p");
  const hw::WireId en = m.make_const(1, 1);
  m.add_output(m.make_register(p, en, 0, "q"), "q");

  const NxDevice device = make_device(hls::ng_ultra());
  BackendOptions options;
  options.detailed_router = true;
  auto backend = run_backend(m, device, options);
  ASSERT_TRUE(backend.ok());
  EXPECT_TRUE(backend.value().route_converged);
  EXPECT_GE(backend.value().route_iterations, 1u);
  EXPECT_GT(backend.value().timing.fmax_mhz, 0.0);
}

}  // namespace
}  // namespace hermes::nx
