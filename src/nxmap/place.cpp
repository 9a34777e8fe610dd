#include "nxmap/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nxmap/nets.hpp"

namespace hermes::nx {
namespace {

/// One distinct net on an instance, with the instance's pin count on it. A
/// net is listed once even when the instance drives and reads it, or reads
/// it on two inputs, but its cost delta still counts once per pin.
struct InstanceNet {
  std::uint32_t net;
  std::int64_t pins;
};

std::vector<std::vector<InstanceNet>> nets_by_instance(const FoldedNets& nets,
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

std::int64_t net_hpwl(const FoldedNets& nets, std::uint32_t j,
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

/// A coordinate drawn uniformly within `window` of `at`, clipped to
/// [0, side).
unsigned draw_near(Rng& rng, unsigned at, unsigned window, unsigned side) {
  const unsigned lo = at > window ? at - window : 0;
  const unsigned hi = std::min(at + window, side - 1);
  return lo + static_cast<unsigned>(rng.next_below(hi - lo + 1));
}

}  // namespace

Placement place(const hw::Module& module, const MappedDesign& design,
                const NxDevice& device, const PlaceOptions& options) {
  Placement placement;
  const std::size_t n = design.instances.size();
  const FoldedNets nets = fold_nets(module, design);
  const std::vector<bool>& wiring = nets.wiring;

  std::vector<std::uint32_t> fabric;
  std::vector<std::int64_t> area(n, 0);
  std::size_t area_luts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MappedInstance& inst = design.instances[i];
    if (wiring[i]) continue;
    fabric.push_back(static_cast<std::uint32_t>(i));
    area[i] = std::max<unsigned>(inst.luts + inst.ffs / 4, 1);
    area_luts += static_cast<std::size_t>(area[i]);
  }

  // Use a compact square region sized to the fabric area (real placers pack
  // too).
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
  std::vector<unsigned> xs(n, 0), ys(n, 0);
  for (std::uint32_t i : fabric) {
    xs[i] = static_cast<unsigned>(rng.next_below(side));
    ys[i] = static_cast<unsigned>(rng.next_below(side));
  }

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
  for (std::uint32_t i : fabric) {
    tile_usage[tile_index(xs[i], ys[i])] += area[i];
  }
  const std::int64_t capacity = device.luts_per_tile;
  auto overflow_of = [&](std::int64_t usage) {
    const std::int64_t over = usage - capacity;
    return over > 0 ? over * over : 0;
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
      const unsigned old_x = xs[i], old_y = ys[i];
      const unsigned new_x = draw_near(rng, old_x, window, side);
      const unsigned new_y = draw_near(rng, old_y, window, side);
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
        ++accepted;
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
    const double rate = static_cast<double>(accepted) /
                        static_cast<double>(moves_per_round);
    rlim = std::clamp(rlim * (1.0 - 0.44 + rate), 1.0,
                      static_cast<double>(side));
  }

  // Final metrics. Wiring instances take their anchor's tile.
  const std::vector<std::uint32_t> anchor =
      wiring_anchors(module, design, wiring);
  placement.location.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t at = wiring[i] ? anchor[i] : static_cast<std::uint32_t>(i);
    placement.location[i] = at == kNoAnchor ? std::pair<unsigned, unsigned>{0, 0}
                                        : std::pair{xs[at], ys[at]};
  }
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
