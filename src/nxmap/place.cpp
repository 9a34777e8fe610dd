#include "nxmap/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace hermes::nx {
namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// Net model: one net per driven wire, connecting the driver instance to
/// every consumer instance. Pins are stored in CSR form: the pins of net `j`
/// are `pins[start[j]] .. pins[start[j + 1] - 1]`, driver first, then one
/// pin per consuming input slot in cell order.
struct NetList {
  std::vector<std::uint32_t> start{0};
  std::vector<std::uint32_t> pins;  ///< instance indices
  std::size_t size() const { return start.size() - 1; }
};

/// Nets are numbered in order of their first consumer.
NetList extract_nets(const hw::Module& module, const MappedDesign& design) {
  std::vector<std::uint32_t> net_of_wire(module.wire_count(), kNone);
  std::vector<std::uint32_t> pin_count;  // per net, driver included
  for (const hw::Cell& cell : module.cells()) {
    for (hw::WireId wire : cell.inputs) {
      if (design.driver_of_wire[wire] == SIZE_MAX) continue;  // port input
      if (net_of_wire[wire] == kNone) {
        net_of_wire[wire] = static_cast<std::uint32_t>(pin_count.size());
        pin_count.push_back(1);
      }
      ++pin_count[net_of_wire[wire]];
    }
  }
  NetList nets;
  nets.start.reserve(pin_count.size() + 1);
  for (std::uint32_t count : pin_count) {
    nets.start.push_back(nets.start.back() + count);
  }
  nets.pins.resize(nets.start.back());
  std::vector<std::uint32_t> fill(nets.start.begin(), nets.start.end() - 1);
  for (std::size_t c = 0; c < module.cells().size(); ++c) {
    for (hw::WireId wire : module.cells()[c].inputs) {
      const std::uint32_t net = net_of_wire[wire];
      if (net == kNone) continue;
      if (fill[net] == nets.start[net]) {
        nets.pins[fill[net]++] =
            static_cast<std::uint32_t>(design.driver_of_wire[wire]);
      }
      nets.pins[fill[net]++] = static_cast<std::uint32_t>(c);  // cell == instance
    }
  }
  return nets;
}

/// One distinct net on an instance, with the instance's pin count on it. A
/// net is listed once even when the instance drives and reads it, or reads
/// it on two inputs, but its cost delta still counts once per pin.
struct InstanceNet {
  std::uint32_t net;
  std::int64_t pins;
};

std::vector<std::vector<InstanceNet>> nets_by_instance(const NetList& nets,
                                                       std::size_t n) {
  std::vector<std::vector<InstanceNet>> out(n);
  for (std::uint32_t j = 0; j < nets.size(); ++j) {
    for (std::uint32_t p = nets.start[j]; p < nets.start[j + 1]; ++p) {
      std::vector<InstanceNet>& touched = out[nets.pins[p]];
      if (!touched.empty() && touched.back().net == j) {
        ++touched.back().pins;
      } else {
        touched.push_back({j, 1});
      }
    }
  }
  return out;
}

std::int64_t net_hpwl(const NetList& nets, std::uint32_t j,
                      const std::vector<unsigned>& xs,
                      const std::vector<unsigned>& ys) {
  unsigned min_x = ~0u, max_x = 0, min_y = ~0u, max_y = 0;
  for (std::uint32_t p = nets.start[j]; p < nets.start[j + 1]; ++p) {
    const unsigned x = xs[nets.pins[p]];
    const unsigned y = ys[nets.pins[p]];
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
  }
  return static_cast<std::int64_t>(max_x - min_x) + (max_y - min_y);
}

}  // namespace

Placement place(const hw::Module& module, const MappedDesign& design,
                const NxDevice& device, const PlaceOptions& options) {
  Placement placement;
  const std::size_t n = design.instances.size();

  // Use a compact square region sized to the design (real placers pack too).
  std::vector<std::int64_t> area(n);
  std::size_t area_luts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MappedInstance& inst = design.instances[i];
    area[i] = std::max<unsigned>(inst.luts + inst.ffs / 4, 1);
    area_luts += static_cast<std::size_t>(area[i]);
  }
  const unsigned needed_tiles = static_cast<unsigned>(
      (area_luts + device.luts_per_tile - 1) / device.luts_per_tile);
  // Spread the region well beyond the area lower bound: routability needs
  // whitespace (placers targeting ~25-35% logic density route best).
  unsigned side = static_cast<unsigned>(
      std::ceil(std::sqrt(static_cast<double>(needed_tiles) * 3.5)));
  side = std::max(side, 2u);
  side = std::min(side, std::min(device.rows, device.cols));
  placement.grid_side = side;

  Rng rng(options.seed);

  // Initial placement: random.
  std::vector<unsigned> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<unsigned>(rng.next_below(side));
    ys[i] = static_cast<unsigned>(rng.next_below(side));
  }

  const NetList nets = extract_nets(module, design);
  const std::vector<std::vector<InstanceNet>> inst_nets =
      nets_by_instance(nets, n);
  std::vector<std::int64_t> net_cost(nets.size());
  for (std::uint32_t j = 0; j < nets.size(); ++j) {
    net_cost[j] = net_hpwl(nets, j, xs, ys);
  }
  // A move's cost for each net on the moved instance, committed to
  // `net_cost` only if the move is accepted.
  std::size_t most_nets = 0;
  for (const std::vector<InstanceNet>& touched : inst_nets) {
    most_nets = std::max(most_nets, touched.size());
  }
  std::vector<std::int64_t> trial_cost(most_nets);

  // Tile usage map for the overflow penalty.
  std::vector<std::int64_t> tile_usage(static_cast<std::size_t>(side) * side, 0);
  auto tile_index = [&](unsigned x, unsigned y) {
    return static_cast<std::size_t>(y) * side + x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    tile_usage[tile_index(xs[i], ys[i])] += area[i];
  }
  const std::int64_t capacity = device.luts_per_tile;
  auto overflow_of = [&](std::int64_t usage) {
    const std::int64_t over = usage - capacity;
    return over > 0 ? over * over : 0;
  };

  double temperature = options.initial_temp;
  const std::size_t moves_per_round = std::max<std::size_t>(n, 16);
  const unsigned rounds = n == 0 ? 0 : options.iterations_per_instance;

  for (unsigned round = 0; round < rounds; ++round) {
    for (std::size_t move = 0; move < moves_per_round; ++move) {
      const std::size_t i = rng.next_below(n);
      const unsigned old_x = xs[i], old_y = ys[i];
      const unsigned new_x = static_cast<unsigned>(rng.next_below(side));
      const unsigned new_y = static_cast<unsigned>(rng.next_below(side));
      if (new_x == old_x && new_y == old_y) continue;

      const std::size_t old_tile = tile_index(old_x, old_y);
      const std::size_t new_tile = tile_index(new_x, new_y);
      const std::int64_t old_usage = tile_usage[old_tile];
      const std::int64_t new_usage = tile_usage[new_tile];
      std::int64_t delta = overflow_of(old_usage - area[i]) +
                           overflow_of(new_usage + area[i]) -
                           overflow_of(old_usage) - overflow_of(new_usage);
      xs[i] = new_x;
      ys[i] = new_y;
      const std::vector<InstanceNet>& touched = inst_nets[i];
      for (std::size_t e = 0; e < touched.size(); ++e) {
        trial_cost[e] = net_hpwl(nets, touched[e].net, xs, ys);
        delta += touched[e].pins * (trial_cost[e] - net_cost[touched[e].net]);
      }

      const bool accept =
          delta <= 0 || rng.next_double() <
                            std::exp(-static_cast<double>(delta) / temperature);
      if (accept) {
        tile_usage[old_tile] = old_usage - area[i];
        tile_usage[new_tile] = new_usage + area[i];
        for (std::size_t e = 0; e < touched.size(); ++e) {
          net_cost[touched[e].net] = trial_cost[e];
        }
      } else {
        xs[i] = old_x;
        ys[i] = old_y;
      }
    }
    temperature *= options.cooling;
  }

  // Final metrics.
  placement.location.resize(n);
  for (std::size_t i = 0; i < n; ++i) placement.location[i] = {xs[i], ys[i]};
  std::int64_t hpwl = 0;
  for (std::int64_t cost : net_cost) hpwl += cost;
  placement.hpwl = static_cast<double>(hpwl);
  std::int64_t overflow = 0;
  for (std::int64_t usage : tile_usage) {
    if (usage > capacity) overflow += usage - capacity;
  }
  placement.overflow = static_cast<double>(overflow);
  return placement;
}

}  // namespace hermes::nx
