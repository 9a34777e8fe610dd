// PathFinder negotiated-congestion routing, kept as the test oracle that
// bounds the signoff router's optimism.
//
// `nx::route` prices each folded net (nxmap/nets.hpp) from its bounding box,
// a lower bound on a multi-sink tree. This oracle embeds the same nets into
// the routing grid: each becomes a Steiner tree over tile nodes, built
// sink-by-sink with Dijkstra searches whose node costs rise with present
// overuse and accumulated history (the classic PathFinder negotiation),
// iterating rip-up-and-reroute until no tile's channel capacity is exceeded
// or `max_rounds` rounds have run. The result carries the estimator's
// Routing, so STA reads either alike and the tests compare the two.
//
// Each sink's search is unbounded over the whole grid, so a design that does
// not converge (sobel) costs ~0.3 s for its 24 rounds: the census tests run
// it on two clocks only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "nxmap/nets.hpp"
#include "nxmap/route.hpp"

namespace hermes::nx::oracle {

struct OracleRoute {
  Routing routing;            ///< same consumer interface as the estimator
  unsigned iterations = 0;    ///< negotiation rounds used
  bool converged = false;     ///< no overused tile at exit
  std::size_t overused_tiles = 0;
};

inline OracleRoute pathfinder(const hw::Module& module,
                              const MappedDesign& design,
                              const Placement& placement,
                              const NxDevice& device,
                              const RouteOptions& options = {},
                              unsigned max_rounds = 24) {
  constexpr double kPresentFactor = 0.6;   // penalty slope for current overuse
  constexpr double kHistoryFactor = 0.35;  // accumulated-congestion pressure

  // One folded net as embedded: the driver tile, every other pin tile, and
  // the demand it puts on a tile it crosses (the root wire's width).
  struct Net {
    std::size_t driver_node;
    std::vector<std::size_t> sink_nodes;
    double bits;
    std::vector<std::size_t> tree;     // routed tile nodes (driver included)
    std::vector<std::size_t> charged;  // tree nodes that consumed capacity

    [[nodiscard]] bool is_terminal(std::size_t node) const {
      if (node == driver_node) return true;
      return std::find(sink_nodes.begin(), sink_nodes.end(), node) !=
             sink_nodes.end();
    }
  };

  OracleRoute result;
  result.routing.wire_delay_ns.assign(module.wire_count(), 0.0);

  const unsigned side = std::max(placement.grid_side, 1u);
  const std::size_t nodes = static_cast<std::size_t>(side) * side;
  auto node_of = [&](std::size_t instance) {
    const auto [x, y] = placement.location[instance];
    return static_cast<std::size_t>(y) * side + x;
  };

  // One routing net per folded net, on the tiles of its pins.
  const FoldedNets folded = fold_nets(module, design);
  std::vector<Net> nets(folded.size());
  for (std::size_t j = 0; j < folded.size(); ++j) {
    Net& net = nets[j];
    net.driver_node = node_of(folded.pins[folded.start[j]]);
    net.bits = module.wire_width(folded.root[j]);
    for (std::uint32_t p = folded.start[j] + 1; p < folded.start[j + 1]; ++p) {
      const std::size_t sink = node_of(folded.pins[p]);
      if (sink != net.driver_node &&
          std::find(net.sink_nodes.begin(), net.sink_nodes.end(), sink) ==
              net.sink_nodes.end()) {
        net.sink_nodes.push_back(sink);
      }
    }
  }

  std::vector<double> usage(nodes, 0.0);
  std::vector<double> history(nodes, 0.0);
  const double capacity = options.channel_capacity;

  auto node_cost = [&](std::size_t node) {
    const double over = usage[node] + 1.0 - capacity;
    const double present = over > 0 ? 1.0 + kPresentFactor * over : 1.0;
    return present + kHistoryFactor * history[node];
  };

  // Route one net as a Steiner tree: grow from the current tree to each
  // sink with Dijkstra over the 4-neighbour grid.
  std::vector<double> dist(nodes);
  std::vector<int> prev(nodes);
  auto route_net = [&](Net& net) {
    net.tree.assign(1, net.driver_node);
    for (std::size_t target : net.sink_nodes) {
      if (std::find(net.tree.begin(), net.tree.end(), target) != net.tree.end()) {
        continue;
      }
      std::fill(dist.begin(), dist.end(), 1e30);
      std::fill(prev.begin(), prev.end(), -1);
      using Item = std::pair<double, std::size_t>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
      for (std::size_t seed : net.tree) {
        dist[seed] = 0.0;
        frontier.push({0.0, seed});
      }
      while (!frontier.empty()) {
        const auto [d, node] = frontier.top();
        frontier.pop();
        if (d > dist[node]) continue;
        if (node == target) break;
        const unsigned x = static_cast<unsigned>(node % side);
        const unsigned y = static_cast<unsigned>(node / side);
        const int neighbors[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
        for (const auto& [dx, dy] : neighbors) {
          const int nx = static_cast<int>(x) + dx;
          const int ny = static_cast<int>(y) + dy;
          if (nx < 0 || ny < 0 || nx >= static_cast<int>(side) ||
              ny >= static_cast<int>(side)) {
            continue;
          }
          const std::size_t next = static_cast<std::size_t>(ny) * side + nx;
          const double nd = d + node_cost(next);
          if (nd < dist[next]) {
            dist[next] = nd;
            prev[next] = static_cast<int>(node);
            frontier.push({nd, next});
          }
        }
      }
      // Walk back from the sink into the tree. Channel capacity is charged
      // on intermediate nodes only: a net's own terminals connect through
      // the tile's dedicated pin interconnect, and no amount of negotiation
      // could move an endpoint anyway.
      std::size_t cursor = target;
      while (cursor != SIZE_MAX &&
             std::find(net.tree.begin(), net.tree.end(), cursor) ==
                 net.tree.end()) {
        net.tree.push_back(cursor);
        if (!net.is_terminal(cursor)) {
          usage[cursor] += net.bits;
          net.charged.push_back(cursor);
        }
        cursor = prev[cursor] < 0 ? SIZE_MAX
                                  : static_cast<std::size_t>(prev[cursor]);
      }
    }
  };

  auto rip_up = [&](Net& net) {
    for (std::size_t node : net.charged) {
      usage[node] -= net.bits;
    }
    net.charged.clear();
    net.tree.clear();
  };

  // Negotiation loop.
  bool converged = false;
  unsigned iteration = 0;
  for (; iteration < max_rounds; ++iteration) {
    for (Net& net : nets) {
      if (!net.tree.empty()) rip_up(net);
      route_net(net);
    }
    std::size_t overused = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
      if (usage[node] > capacity) {
        ++overused;
        // Classic PathFinder: a unit of history pressure per overused
        // iteration (plus the relative excess), so even barely-over tiles
        // accumulate enough cost to force a detour within a few rounds.
        history[node] += 1.0 + (usage[node] - capacity) / capacity;
      }
    }
    result.overused_tiles = overused;
    if (overused == 0) {
      converged = true;
      break;
    }
  }
  result.iterations = std::min(iteration + 1, max_rounds);
  result.converged = converged;

  // Delays and metrics from the final trees.
  summarize_congestion(usage, capacity, result.routing);
  for (std::size_t j = 0; j < nets.size(); ++j) {
    const std::vector<std::size_t>& tree = nets[j].tree;
    const double hops = tree.empty() ? 0.0 : static_cast<double>(tree.size() - 1);
    result.routing.total_wirelength += hops;
    result.routing.wire_delay_ns[folded.root[j]] =
        device.target.routing_delay_ns * (0.5 + 0.25 * hops);
  }
  return result;
}

}  // namespace hermes::nx::oracle
