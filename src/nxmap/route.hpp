// Global routing estimate (paper Fig. 3: "route").
//
// Prices the placer's folded nets (nxmap/nets.hpp): each net's delay comes
// from its bounding-box half-perimeter and lands on its root wire. Each net
// spreads its root-wire width over its box; tiles over the channel capacity
// dilate the delays of the nets whose boxes cross them. `total_wirelength`
// is the placer's HPWL. This is a global-router-style estimate, which is
// what timing-closure decisions in the real NXmap flow are first made on,
// and the backend's one router: STA signs off on its delays. The box is a
// lower bound on a multi-sink tree, so its fmax is optimistic;
// RouteOracle.BoundsEstimatorOnCensus (tests/test_nxmap.cpp) bounds that
// optimism against a negotiated-congestion embedding of the same nets, the
// routing oracle in tests/route_oracle.hpp.
#pragma once

#include <vector>

#include "hw/netlist.hpp"
#include "nxmap/place.hpp"

namespace hermes::nx {

struct RouteOptions {
  /// Routing demand (wire-bits) one tile's channels sustain. Modern fabrics
  /// provide on the order of 100-200 tracks per channel.
  double channel_capacity = 160.0;
};

struct Routing {
  /// Routed delay (ns) from the driver of `wire` to its consumers.
  std::vector<double> wire_delay_ns;
  double total_wirelength = 0.0;   ///< tile hops summed over nets
  double max_congestion = 0.0;     ///< peak demand / capacity
  double congested_tiles_pct = 0.0;
};

Routing route(const hw::Module& module, const MappedDesign& design,
              const Placement& placement, const NxDevice& device,
              const RouteOptions& options = {});

/// Sets `max_congestion` and `congested_tiles_pct` from each tile's routing
/// demand (wire-bits) against the channel capacity. Public so that the
/// routing oracle in tests/ reports congestion alike.
void summarize_congestion(const std::vector<double>& demand, double capacity,
                          Routing& routing);

}  // namespace hermes::nx
