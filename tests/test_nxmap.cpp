// Tests for the NXmap backend: device model, tech mapping, placement,
// routing, STA, bitstream and power — ending with the paper's 2x-speed /
// 4x-power claim measured end-to-end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "apps/kernels.hpp"
#include "hls/flow.hpp"
#include "netlist_fuzz.hpp"
#include "route_oracle.hpp"
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

bool is_wiring_cell(hw::CellKind kind) {
  return kind == hw::CellKind::kConst || kind == hw::CellKind::kZext ||
         kind == hw::CellKind::kSext || kind == hw::CellKind::kSlice ||
         kind == hw::CellKind::kConcat;
}

bool is_wiring_instance(const hw::Module& module, const MappedDesign& design,
                        std::size_t i) {
  const std::size_t cell = design.instances[i].cell_index;
  return cell != SIZE_MAX && is_wiring_cell(module.cells()[cell].kind);
}

/// The wires `wire` reaches through chains of wiring cells, itself included
/// (a fixpoint over the whole cell list).
std::set<hw::WireId> reached_through_wiring(const hw::Module& module,
                                            hw::WireId wire) {
  std::set<hw::WireId> reached{wire};
  for (bool grew = true; grew;) {
    grew = false;
    for (const hw::Cell& cell : module.cells()) {
      if (!is_wiring_cell(cell.kind)) continue;
      const bool fed = std::any_of(
          cell.inputs.begin(), cell.inputs.end(),
          [&](hw::WireId in) { return reached.count(in) != 0; });
      if (!fed) continue;
      for (hw::WireId out : cell.outputs) grew |= reached.insert(out).second;
    }
  }
  return reached;
}

/// Folded nets: per fabric cell output wire, the driver plus one pin per
/// fabric input slot reading any wire it reaches through wiring; nets with
/// no such slot are dropped.
std::vector<std::vector<std::size_t>> reference_nets(const hw::Module& module,
                                                     const MappedDesign& design) {
  std::vector<std::vector<std::size_t>> nets;
  const std::vector<hw::Cell>& cells = module.cells();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (is_wiring_instance(module, design, c)) continue;
    for (hw::WireId out : cells[c].outputs) {
      const std::set<hw::WireId> reached = reached_through_wiring(module, out);
      std::vector<std::size_t> net{c};
      for (std::size_t f = 0; f < cells.size(); ++f) {
        if (is_wiring_instance(module, design, f)) continue;
        for (hw::WireId in : cells[f].inputs) {
          if (reached.count(in)) net.push_back(f);
        }
      }
      if (net.size() > 1) nets.push_back(std::move(net));
    }
  }
  return nets;
}

/// The instance whose tile a wiring instance takes: the fabric root of its
/// first driven input (following each wiring driver's first driven input),
/// else its lowest-index fabric consumer through wiring, else SIZE_MAX.
std::size_t reference_anchor(const hw::Module& module,
                             const MappedDesign& design, std::size_t i) {
  std::size_t up = i;
  while (up != SIZE_MAX && is_wiring_instance(module, design, up)) {
    std::size_t driver = SIZE_MAX;
    for (hw::WireId in : module.cells()[up].inputs) {
      driver = design.driver_of_wire[in];
      if (driver != SIZE_MAX) break;
    }
    up = driver;
  }
  if (up != SIZE_MAX) return up;
  std::size_t down = SIZE_MAX;
  for (hw::WireId out : module.cells()[i].outputs) {
    const std::set<hw::WireId> reached = reached_through_wiring(module, out);
    for (std::size_t f = 0; f < module.cells().size() && f < down; ++f) {
      if (is_wiring_instance(module, design, f)) continue;
      for (hw::WireId in : module.cells()[f].inputs) {
        if (reached.count(in)) down = std::min(down, f);
      }
    }
  }
  return down;
}

// The annealing loop with every cost recomputed in full: each move
// recomputes the HPWL of each folded net on the moved instance (once per pin
// it has there) before and after the move. Only fabric instances move, to a
// tile within the VPR window of their own. nx::place must reproduce it
// exactly.
Placement reference_place(const hw::Module& module, const MappedDesign& design,
                          const NxDevice& device, const PlaceOptions& options) {
  Placement placement;
  const std::size_t n = design.instances.size();
  placement.location.assign(n, {0, 0});

  std::vector<std::size_t> fabric;
  std::size_t area_luts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_wiring_instance(module, design, i)) continue;
    fabric.push_back(i);
    const MappedInstance& inst = design.instances[i];
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
  for (std::size_t i : fabric) {
    placement.location[i] = {static_cast<unsigned>(rng.next_below(side)),
                             static_cast<unsigned>(rng.next_below(side))};
  }

  const std::vector<std::vector<std::size_t>> nets =
      reference_nets(module, design);
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
  for (std::size_t i : fabric) {
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
  auto near = [&](unsigned at, unsigned window) {
    const long lo = std::max(0L, static_cast<long>(at) - static_cast<long>(window));
    const long hi = std::min(static_cast<long>(side) - 1,
                             static_cast<long>(at) + static_cast<long>(window));
    return static_cast<unsigned>(
        lo + static_cast<long>(rng.next_below(static_cast<std::uint64_t>(hi - lo + 1))));
  };

  double temperature = options.initial_temp;
  double rlim = side;
  const std::size_t moves_per_round = std::max<std::size_t>(fabric.size(), 16);
  const unsigned rounds = fabric.empty() ? 0 : options.iterations_per_instance;
  for (unsigned round = 0; round < rounds; ++round) {
    const unsigned window = static_cast<unsigned>(rlim);
    std::size_t accepted = 0;
    for (std::size_t move = 0; move < moves_per_round; ++move) {
      const std::size_t i = fabric[rng.next_below(fabric.size())];
      const auto old_loc = placement.location[i];
      const unsigned nx = near(old_loc.first, window);
      const unsigned ny = near(old_loc.second, window);
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
      if (accept) {
        ++accepted;
      } else {
        placement.location[i] = old_loc;
        tile_usage[old_tile] += area;
        tile_usage[new_tile] -= area;
      }
    }
    temperature *= options.cooling;
    const double rate = static_cast<double>(accepted) /
                        static_cast<double>(moves_per_round);
    rlim = std::clamp(rlim * (1.0 - 0.44 + rate), 1.0,
                      static_cast<double>(side));
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!is_wiring_instance(module, design, i)) continue;
    const std::size_t anchor = reference_anchor(module, design, i);
    if (anchor != SIZE_MAX) placement.location[i] = placement.location[anchor];
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
    for (unsigned iterations : {0u, 8u, 40u}) {
      for (double cooling : {0.875, 0.5}) {
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
/// net with fanout above 64. Then the wiring shapes the folded nets and
/// anchors must handle: a const with many fabric consumers, a
/// zext -> slice -> concat chain, a concat that reads one wire twice, a
/// wiring cell fed only by a port, and a wiring cell that reaches only an
/// output port.
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

  const hw::WireId tie = m.make_const(0x5a5a, 16, "tie");
  for (int i = 0; i < 12; ++i) {
    m.add_output(m.make_binop(hw::CellKind::kOr, tie, twice, 16),
                 "tie" + std::to_string(i));
  }
  const hw::WireId wide = m.make_zext(hub, 32, "wide");
  const hw::WireId mid = m.make_slice(wide, 4, 8, "mid");
  const hw::WireId packed = m.make_concat({mid, m.make_slice(q, 0, 8)}, "packed");
  m.add_output(m.make_binop(hw::CellKind::kSub, packed, twice, 16), "chain");
  const hw::WireId doubled = m.make_concat({twice, twice}, "doubled");
  m.add_output(m.make_binop(hw::CellKind::kXor, doubled, wide, 32), "doubled");
  const hw::WireId from_port = m.make_sext(a, 32, "from_port");
  m.add_output(m.make_binop(hw::CellKind::kAnd, from_port, doubled, 32),
               "from_port");
  m.add_output(m.make_slice(twice, 2, 4, "to_port"), "to_port");
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

// Wiring cells take their anchor's tile, and take no tile capacity: stacking
// 200 more wiring cells on one fabric cell changes neither the region, nor
// any fabric location, nor the HPWL and overflow.
TEST(Place, WiringSitsOnItsAnchorAndTakesNoCapacity) {
  auto build = [](int extra_slices) {
    hw::Module m("wiring");
    const hw::WireId a = m.add_wire(16, "a");
    const hw::WireId b = m.add_wire(16, "b");
    m.add_input(a, "a");
    m.add_input(b, "b");
    const hw::WireId f1 = m.make_binop(hw::CellKind::kXor, a, b, 16, "f1");
    const hw::WireId z = m.make_zext(f1, 32, "z");
    const hw::WireId s = m.make_slice(z, 4, 8, "s");
    const hw::WireId k = m.make_const(3, 8, "k");
    const hw::WireId cc = m.make_concat({k, s}, "cc");
    const hw::WireId f2 = m.make_binop(hw::CellKind::kAdd, cc, cc, 16, "f2");
    const hw::WireId pz = m.make_zext(a, 32, "pz");
    const hw::WireId f3 = m.make_binop(hw::CellKind::kAnd, pz, z, 32, "f3");
    const hw::WireId en = m.make_const(1, 1, "en");
    m.add_output(m.make_register(f3, en, 0, "q"), "q");
    m.add_output(m.make_slice(f2, 0, 4, "out_only"), "out_only");
    m.add_output(m.make_const(7, 4, "lone"), "lone");
    for (int i = 0; i < extra_slices; ++i) {
      m.add_output(m.make_slice(f1, static_cast<unsigned>(i % 16), 1),
                   "bit" + std::to_string(i));
    }
    return m;
  };
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = build(0);
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement p = place(m, mapped.value(), device);

  std::map<std::string, std::size_t> cell;  // by the name of its output wire
  for (std::size_t c = 0; c < m.cells().size(); ++c) {
    cell[m.wire_name(m.cells()[c].outputs.at(0))] = c;
  }
  auto at = [&](const char* name) { return p.location[cell.at(name)]; };
  EXPECT_EQ(at("z"), at("f1"));         // root of its driven input
  EXPECT_EQ(at("s"), at("f1"));         // through zext
  EXPECT_EQ(at("cc"), at("f2"));        // first driven input is a const
  EXPECT_EQ(at("k"), at("f2"));         // tie-off: first fabric consumer
  EXPECT_EQ(at("pz"), at("f3"));        // port-fed: first fabric consumer
  EXPECT_EQ(at("en"), at("q"));
  EXPECT_EQ(at("out_only"), at("f2"));  // reaches only an output port
  EXPECT_EQ(at("lone"), (std::pair<unsigned, unsigned>{0, 0}));

  const hw::Module stacked = build(200);
  auto stacked_mapped = techmap(stacked, device);
  ASSERT_TRUE(stacked_mapped.ok());
  const Placement q = place(stacked, stacked_mapped.value(), device);
  EXPECT_EQ(q.grid_side, p.grid_side);
  EXPECT_EQ(q.hpwl, p.hpwl);
  EXPECT_EQ(q.overflow, p.overflow);
  ASSERT_GT(q.location.size(), p.location.size());
  EXPECT_TRUE(std::equal(p.location.begin(), p.location.end(),
                         q.location.begin()));
  for (std::size_t i = p.location.size(); i < q.location.size(); ++i) {
    EXPECT_EQ(q.location[i], q.location[cell.at("f1")]) << i;
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

// mul -> zext -> add, with a const and a port on the other inputs: the
// router and its oracle price the folded net once, on the mul's output; the
// zext's wire, the const tie-offs and the port carry no routed delay.
TEST(Route, PricesEachFoldedNetOnItsRootWire) {
  const NxDevice device = make_device(hls::ng_ultra());
  hw::Module m("fold");
  const hw::WireId a = m.add_wire(16, "a");
  const hw::WireId b = m.add_wire(16, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const hw::WireId p = m.make_binop(hw::CellKind::kMul, a, b, 16, "p");
  const hw::WireId z = m.make_zext(p, 32, "z");
  const hw::WireId k = m.make_const(5, 32, "k");
  const hw::WireId s = m.make_binop(hw::CellKind::kAdd, z, k, 32, "s");
  const hw::WireId en = m.make_const(1, 1);
  m.add_output(m.make_register(s, en, 0, "q"), "q");
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const MappedDesign& design = mapped.value();
  const Placement placement = place(m, design, device);
  auto tile_of = [&](hw::WireId w) {
    return placement.location[design.driver_of_wire[w]];
  };
  const auto [px, py] = tile_of(p);
  const auto [sx, sy] = tile_of(s);
  const double hops = std::abs(static_cast<double>(px) - sx) +
                      std::abs(static_cast<double>(py) - sy);

  const Routing estimate = route(m, design, placement, device);
  EXPECT_DOUBLE_EQ(estimate.wire_delay_ns[p],
                   device.target.routing_delay_ns * (0.5 + 0.25 * hops));
  EXPECT_EQ(estimate.total_wirelength, placement.hpwl);
  const oracle::OracleRoute detailed =
      oracle::pathfinder(m, design, placement, device);
  ASSERT_TRUE(detailed.converged);
  EXPECT_GE(detailed.routing.wire_delay_ns[p], estimate.wire_delay_ns[p]);
  for (const Routing* routing : {&estimate, &detailed.routing}) {
    EXPECT_EQ(routing->wire_delay_ns[z], 0.0);
    EXPECT_EQ(routing->wire_delay_ns[k], 0.0);
    EXPECT_EQ(routing->wire_delay_ns[en], 0.0);
    EXPECT_EQ(routing->wire_delay_ns[a], 0.0);
    EXPECT_GT(routing->wire_delay_ns[s], 0.0);
  }
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

// Callers that run the sub-stages themselves reach STA without
// run_backend_map, so STA checks its own target.
TEST(Sta, RejectsOutOfRangeTarget) {
  const NxDevice device = make_device(hls::ng_ultra());
  const hw::Module m = small_design();
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  const Placement placement = place(m, mapped.value(), device);
  const Routing routing = route(m, mapped.value(), placement, device);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double target;
    bool ok;
  } cases[] = {
      {10.0, true}, {0.0, true},   {0.01, true}, {-5.0, false},
      {-0.0, true}, {nan, false},  {inf, false}, {-inf, false},
  };
  for (const auto& c : cases) {
    auto timing = analyze_timing(m, mapped.value(), routing, device, c.target);
    EXPECT_EQ(timing.ok(), c.ok) << c.target;
    if (!c.ok) {
      EXPECT_EQ(timing.status().code(), ErrorCode::kInvalidArgument)
          << c.target;
    }
  }
}

/// Names every cell after its index, so a critical path maps back to cells.
void name_cells(hw::Module& m) {
  std::vector<hw::Cell> cells = m.cells();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].name = "c" + std::to_string(c);
  }
  m.replace_cells(std::move(cells));
}

/// Checks the reported critical path against a recomputed forward pass:
/// every step enters its cell through an input that attains the cell's input
/// arrival (latest arrival plus routed delay), and the path starts at a cell
/// whose arrival is set by a sequential, port or missing driver.
void expect_path_follows_arrivals(const hw::Module& m, const MappedDesign& design,
                                  const Routing& routing,
                                  const TimingReport& report) {
  const std::vector<hw::Cell>& cells = m.cells();
  std::vector<std::size_t> driver(m.wire_count(), SIZE_MAX);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (hw::WireId w : cells[c].outputs) driver[w] = c;
  }
  auto is_comb = [&](std::size_t d) {
    return d != SIZE_MAX && !hw::is_sequential(cells[d].kind);
  };
  std::map<std::size_t, double> out_arrival;  // comb cells, memoized
  std::function<double(std::size_t)> input_arrival;
  auto wire_at = [&](hw::WireId w) {
    double at = 0.0;
    if (is_comb(driver[w])) {
      const std::size_t d = driver[w];
      auto it = out_arrival.find(d);
      if (it == out_arrival.end()) {
        it = out_arrival
                 .emplace(d, input_arrival(d) + design.instances[d].internal_delay_ns)
                 .first;
      }
      at = it->second;
    }
    return at + routing.wire_delay_ns[w];
  };
  input_arrival = [&](std::size_t c) {
    double at = 0.0;
    for (hw::WireId w : cells[c].inputs) at = std::max(at, wire_at(w));
    return at;
  };

  ASSERT_FALSE(report.critical_path.empty());
  std::vector<std::size_t> path;
  for (const std::string& name : report.critical_path) {
    ASSERT_EQ(name[0], 'c') << name;
    path.push_back(std::stoul(name.substr(1)));
  }
  for (std::size_t k = 1; k < path.size(); ++k) {
    const hw::Cell& cell = cells[path[k]];
    const double want = input_arrival(path[k]);
    bool attained = false;
    for (hw::WireId w : cell.inputs) {
      attained |= driver[w] == path[k - 1] && wire_at(w) == want;
    }
    EXPECT_TRUE(attained) << "step " << k << " into " << report.critical_path[k];
  }
  if (path.size() < 16) {
    const hw::Cell& start = cells[path[0]];
    const double want = input_arrival(path[0]);
    bool from_source = start.inputs.empty();
    for (hw::WireId w : start.inputs) {
      from_source |= !is_comb(driver[w]) && wire_at(w) == want;
    }
    EXPECT_TRUE(from_source) << "path start " << report.critical_path[0];
  }
}

TEST(Sta, CriticalPathStepsThroughTheTimedInput) {
  const NxDevice device = make_device(hls::ng_ultra());
  // A const and a register launch at the same time; the register's wire is
  // the slower route, so it, not the const, starts the path.
  {
    hw::Module m("sta_path");
    const hw::WireId en = m.make_const(1, 1);
    const hw::WireId d = m.add_wire(16, "d");
    m.add_input(d, "d");
    const hw::WireId r = m.make_register(d, en, 0, "r");
    const hw::WireId k = m.make_const(5, 16);
    const hw::WireId x = m.make_binop(hw::CellKind::kAdd, k, r, 16);
    m.add_output(m.make_register(x, en, 0, "q"), "q");
    name_cells(m);
    auto mapped = techmap(m, device);
    ASSERT_TRUE(mapped.ok());
    Routing routing;
    routing.wire_delay_ns.assign(m.wire_count(), 0.1);
    routing.wire_delay_ns[r] = 2.0;
    auto timing = analyze_timing(m, mapped.value(), routing, device);
    ASSERT_TRUE(timing.ok());
    EXPECT_EQ(timing.value().critical_path.front(),
              m.cells()[mapped.value().driver_of_wire[x]].name);
    expect_path_follows_arrivals(m, mapped.value(), routing, timing.value());
  }
  // Random register-to-register logic with random routed delays.
  Rng rng(0x57a);
  for (int trial = 0; trial < 40; ++trial) {
    hw::Module m("sta_rand" + std::to_string(trial));
    const hw::WireId en = m.make_const(1, 1);
    std::vector<hw::WireId> pool;
    for (int i = 0; i < 4; ++i) {
      const hw::WireId d = m.add_wire(16);
      m.add_input(d, "d" + std::to_string(i));
      pool.push_back(m.make_register(d, en, 0));
      pool.push_back(m.make_const(rng.next_below(1000), 16));
    }
    static constexpr hw::CellKind kKinds[] = {
        hw::CellKind::kAdd, hw::CellKind::kXor, hw::CellKind::kAnd,
        hw::CellKind::kMul, hw::CellKind::kSub};
    for (int i = 0; i < 24; ++i) {
      const hw::WireId a = pool[rng.next_below(pool.size())];
      const hw::WireId b = pool[rng.next_below(pool.size())];
      pool.push_back(m.make_binop(kKinds[rng.next_below(5)], a, b, 16));
    }
    for (int i = 0; i < 3; ++i) {
      m.add_output(m.make_register(pool[pool.size() - 1 - i], en, 0),
                   "q" + std::to_string(i));
    }
    name_cells(m);
    auto mapped = techmap(m, device);
    ASSERT_TRUE(mapped.ok());
    Routing routing;
    routing.wire_delay_ns.resize(m.wire_count());
    for (double& delay : routing.wire_delay_ns) delay = 2.0 * rng.next_double();
    auto timing = analyze_timing(m, mapped.value(), routing, device);
    ASSERT_TRUE(timing.ok());
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_path_follows_arrivals(m, mapped.value(), routing, timing.value());
  }
}

// add -> register a -> register b with a slow a -> b wire: the worst
// endpoint is b's input, and the path starts and ends at a; the add belongs
// to the previous cycle.
TEST(Sta, CriticalPathStopsAtTheLaunchingRegister) {
  const NxDevice device = make_device(hls::ng_ultra());
  hw::Module m("sta_launch");
  const hw::WireId en = m.make_const(1, 1);
  const hw::WireId x = m.add_wire(16, "x");
  const hw::WireId y = m.add_wire(16, "y");
  m.add_input(x, "x");
  m.add_input(y, "y");
  const hw::WireId sum = m.make_binop(hw::CellKind::kAdd, x, y, 16);
  const hw::WireId a = m.make_register(sum, en, 0);
  m.add_output(m.make_register(a, en, 0), "b");
  name_cells(m);
  auto mapped = techmap(m, device);
  ASSERT_TRUE(mapped.ok());
  Routing routing;
  routing.wire_delay_ns.assign(m.wire_count(), 0.0);
  routing.wire_delay_ns[a] = 5.0;
  auto timing = analyze_timing(m, mapped.value(), routing, device);
  ASSERT_TRUE(timing.ok());
  const std::string reg_a = m.cells()[mapped.value().driver_of_wire[a]].name;
  EXPECT_EQ(timing.value().critical_path, std::vector<std::string>{reg_a});
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

// A channel capacity that is not finite and positive, or a target period
// that is negative or not finite, is rejected at the backend entry; 0 is
// still a report-only target.
TEST(Backend, RejectsOutOfRangeNumbers) {
  const NxDevice device = make_device(hls::ng_ultra());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double capacity, target;
    bool ok;
  } cases[] = {
      {160.0, 10.0, true}, {160.0, 0.0, true},  {0.5, 10.0, true},
      {0.0, 10.0, false},  {-1.0, 10.0, false}, {nan, 10.0, false},
      {inf, 10.0, false},  {160.0, -5.0, false}, {160.0, nan, false},
      {160.0, inf, false},
  };
  for (const auto& c : cases) {
    BackendOptions options;
    options.route.channel_capacity = c.capacity;
    options.target_period_ns = c.target;
    auto backend = run_backend(small_design(), device, options);
    EXPECT_EQ(backend.ok(), c.ok) << c.capacity << " " << c.target;
    if (!c.ok) {
      EXPECT_EQ(backend.status().code(), ErrorCode::kInvalidArgument)
          << c.capacity << " " << c.target;
    }
  }
}

// ---- placement census ----

// The catalog × clocks {6.25, 8, 10, 12.5} ns, each compiled for its clock
// and closed against it. The met count, fmax geomean and worst slack are
// floors and the HPWL geomean and the estimator's peak congestion ceilings,
// pinned at the folded-net router; a later change may only improve them.
// On every point the estimator's wirelength is the placer's HPWL: both
// price the same folded nets.
TEST(PlaceCensus, CatalogTimesClocks) {
  const NxDevice device = make_device(hls::ng_ultra());
  int met = 0, points = 0;
  double log_fmax = 0.0, log_hpwl = 0.0;
  double worst_slack = 0.0, peak_congestion = 0.0;
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    for (double period : {6.25, 8.0, 10.0, 12.5}) {
      hls::FlowOptions options;
      options.top = kernel.name;
      options.constraints.clock_period_ns = period;
      auto flow = hls::run_flow(kernel.source, options);
      ASSERT_TRUE(flow.ok()) << kernel.name << " " << period;
      BackendOptions backend_options;
      backend_options.target_period_ns = period;
      auto backend =
          run_backend(flow.value().fsmd.module, device, backend_options);
      ASSERT_TRUE(backend.ok()) << kernel.name << " " << period;
      const BackendResult& result = backend.value();
      EXPECT_EQ(result.routing.total_wirelength, result.placement.hpwl)
          << kernel.name << " " << period;
      met += result.timing.meets_target ? 1 : 0;
      log_fmax += std::log(result.timing.fmax_mhz);
      log_hpwl += std::log(result.placement.hpwl);
      worst_slack = std::min(worst_slack, result.timing.slack_ns);
      peak_congestion = std::max(peak_congestion, result.routing.max_congestion);
      ++points;
    }
  }
  const double fmax_geomean = std::exp(log_fmax / points);
  const double hpwl_geomean = std::exp(log_hpwl / points);
  EXPECT_GE(met, 6) << "of " << points;
  EXPECT_GE(fmax_geomean, 97.52);
  EXPECT_LE(hpwl_geomean, 282.96);
  EXPECT_GE(worst_slack, -6.23);
  EXPECT_LE(peak_congestion, 1.12);
  std::printf("census: %d/%d met, fmax geomean %.3f MHz, HPWL geomean %.3f, "
              "worst slack %.3f ns, peak congestion %.3f\n",
              met, points, fmax_geomean, hpwl_geomean, worst_slack,
              peak_congestion);
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

// The PathFinder routing oracle (route_oracle.hpp): its own behaviour, and
// the bound it puts on the estimator's optimism.
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

  const oracle::OracleRoute routed =
      oracle::pathfinder(m, mapped.value(), placement, device);
  EXPECT_TRUE(routed.converged) << routed.overused_tiles << " overused tiles";
  EXPECT_EQ(routed.overused_tiles, 0u);
  EXPECT_GT(routed.routing.total_wirelength, 0.0);
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

  RouteOptions tight;
  tight.channel_capacity = 40.0;
  const oracle::OracleRoute routed =
      oracle::pathfinder(m, mapped.value(), placement, device, tight, 32);
  EXPECT_GT(routed.iterations, 1u) << "scarcity must trigger negotiation";
  EXPECT_LE(routed.routing.max_congestion, 2.0)
      << "negotiation must spread the hotspots (first-iteration hotspots on "
         "this design exceed 4x capacity)";
}

// The catalog at clocks {6.25, 10} ns: 8 and 12.5 ns give the schedules
// and placements of 10 ns, so two clocks cover the four-clock census. On
// every point the routed trees are at least the estimator's wirelength (the
// placer's HPWL); where the oracle converges, the estimator's fmax is at
// least the oracle's, and by at most the pinned ratio. The converged count
// is a floor and the ratio a ceiling: a later change may only improve them.
TEST(RouteOracle, BoundsEstimatorOnCensus) {
  const NxDevice device = make_device(hls::ng_ultra());
  int points = 0, converged = 0;
  double worst_ratio = 1.0;
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    for (double period : {6.25, 10.0}) {
      hls::FlowOptions options;
      options.top = kernel.name;
      options.constraints.clock_period_ns = period;
      auto flow = hls::run_flow(kernel.source, options);
      ASSERT_TRUE(flow.ok()) << kernel.name << " " << period;
      BackendOptions backend_options;
      backend_options.target_period_ns = period;
      auto map =
          run_backend_map(flow.value().fsmd.module, device, backend_options);
      ASSERT_TRUE(map.ok()) << kernel.name << " " << period;
      const MapResult& estimate = map.value();
      const oracle::OracleRoute routed = oracle::pathfinder(
          estimate.synthesized, estimate.mapped, estimate.placement, device);
      auto timing = analyze_timing(estimate.synthesized, estimate.mapped,
                                   routed.routing, device, period);
      ASSERT_TRUE(timing.ok()) << kernel.name << " " << period;
      const double estimate_fmax = estimate.timing.fmax_mhz;
      const double oracle_fmax = timing.value().fmax_mhz;
      EXPECT_GE(routed.routing.total_wirelength,
                estimate.routing.total_wirelength)
          << kernel.name << " " << period;
      if (routed.converged) {
        ++converged;
        EXPECT_GE(estimate_fmax, oracle_fmax) << kernel.name << " " << period;
        worst_ratio = std::max(worst_ratio, estimate_fmax / oracle_fmax);
      }
      ++points;
      std::printf("oracle %-10s %5.2f ns: estimator %7.2f MHz %5.0f hops, "
                  "oracle %7.2f MHz %5.0f hops, %2u rounds%s\n",
                  kernel.name.c_str(), period, estimate_fmax,
                  estimate.routing.total_wirelength, oracle_fmax,
                  routed.routing.total_wirelength, routed.iterations,
                  routed.converged ? "" : " (not converged)");
    }
  }
  EXPECT_GE(converged, 8) << "of " << points;
  EXPECT_LE(worst_ratio, 1.093);
  std::printf("oracle census: %d/%d converged, worst estimator/oracle fmax "
              "%.4f\n",
              converged, points, worst_ratio);
}

}  // namespace
}  // namespace hermes::nx
