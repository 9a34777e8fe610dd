// Detailed global routing — PathFinder-style negotiated congestion.
//
// The estimator in route.hpp prices the placer's folded nets
// (nxmap/nets.hpp) by bounding box; this router embeds the same nets into
// the routing grid: each becomes a Steiner tree over tile nodes, built
// sink-by-sink with Dijkstra searches whose node costs rise with present
// overuse and accumulated history (the classic PathFinder negotiation),
// iterating rip-up-and-reroute until no tile's channel capacity is exceeded
// or `RouteOptions::max_iterations` rounds have run. The result is the
// estimator's Routing, so STA and reports read either router alike.
#pragma once

#include "nxmap/route.hpp"

namespace hermes::nx {

struct DetailedRouteResult {
  Routing routing;            ///< same consumer interface as the estimator
  unsigned iterations = 0;    ///< negotiation rounds used
  bool converged = false;     ///< no overused tile at exit
  std::size_t overused_tiles = 0;
};

DetailedRouteResult detailed_route(const hw::Module& module,
                                   const MappedDesign& design,
                                   const Placement& placement,
                                   const NxDevice& device,
                                   const RouteOptions& options = {});

}  // namespace hermes::nx
