#include "nxmap/route.hpp"

#include <algorithm>

#include "nxmap/nets.hpp"

namespace hermes::nx {

Routing route(const hw::Module& module, const MappedDesign& design,
              const Placement& placement, const NxDevice& device,
              const RouteOptions& options) {
  Routing routing;
  routing.wire_delay_ns.assign(module.wire_count(), 0.0);
  const unsigned side = std::max(placement.grid_side, 1u);
  const FoldedNets nets = fold_nets(module, design);

  // Pass 1: each net's bounding box, and its routing demand spread over it.
  std::vector<double> demand(static_cast<std::size_t>(side) * side, 0.0);
  auto tile_index = [&](unsigned x, unsigned y) {
    return static_cast<std::size_t>(y) * side + x;
  };
  struct Box {
    unsigned min_x, max_x, min_y, max_y;
    [[nodiscard]] double hops() const {
      return static_cast<double>(max_x - min_x) +
             static_cast<double>(max_y - min_y);
    }
  };
  std::vector<Box> boxes(nets.size());
  for (std::size_t j = 0; j < nets.size(); ++j) {
    Box box{~0u, 0, ~0u, 0};
    for (std::uint32_t p = nets.start[j]; p < nets.start[j + 1]; ++p) {
      const auto [x, y] = placement.location[nets.pins[p]];
      box = {std::min(box.min_x, x), std::max(box.max_x, x),
             std::min(box.min_y, y), std::max(box.max_y, y)};
    }
    boxes[j] = box;
    routing.total_wirelength += box.hops();
    // One unit of demand per root-wire bit, spread over the box's tiles.
    const double bbox_tiles =
        static_cast<double>(box.max_x - box.min_x + 1) *
        static_cast<double>(box.max_y - box.min_y + 1);
    const double bits = module.wire_width(nets.root[j]);
    for (unsigned y = box.min_y; y <= box.max_y && y < side; ++y) {
      for (unsigned x = box.min_x; x <= box.max_x && x < side; ++x) {
        demand[tile_index(x, y)] += bits / bbox_tiles;
      }
    }
  }

  // Pass 2: each root wire's routed delay = base hop delay * distance,
  // dilated by the worst congestion inside the box (detour model).
  for (std::size_t j = 0; j < nets.size(); ++j) {
    const Box& box = boxes[j];
    double worst = 0.0;
    for (unsigned y = box.min_y; y <= box.max_y && y < side; ++y) {
      for (unsigned x = box.min_x; x <= box.max_x && x < side; ++x) {
        worst = std::max(worst, demand[tile_index(x, y)] / options.channel_capacity);
      }
    }
    const double dilation = worst > 1.0 ? worst : 1.0;
    routing.wire_delay_ns[nets.root[j]] =
        device.target.routing_delay_ns * (0.5 + 0.25 * box.hops()) * dilation;
  }
  summarize_congestion(demand, options.channel_capacity, routing);
  return routing;
}

void summarize_congestion(const std::vector<double>& demand, double capacity,
                          Routing& routing) {
  std::size_t congested = 0;
  for (double d : demand) {
    routing.max_congestion = std::max(routing.max_congestion, d / capacity);
    if (d > capacity) ++congested;
  }
  routing.congested_tiles_pct =
      demand.empty() ? 0.0
                     : 100.0 * static_cast<double>(congested) /
                           static_cast<double>(demand.size());
}

}  // namespace hermes::nx
