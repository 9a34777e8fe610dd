// Placement (paper Fig. 3: "place").
//
// Simulated-annealing placement of the fabric instances onto the logic tile
// grid, minimizing half-perimeter wirelength with a quadratic penalty on
// tile capacity overflow. Deterministic for a fixed seed.
//
// Only what occupies the fabric is placed: every cell instance except the
// wiring cells (hw::is_wiring), plus the BRAM memory instances, over the
// folded nets the router prices (nxmap/nets.hpp). Wiring has area 0, does
// not count toward the region size, and after annealing takes its anchor's
// tile (`wiring_anchors`), else (0, 0), so `location` covers every instance.
//
// Random start, then rounds of single-instance moves under a geometric
// cooling schedule. Moves are range-limited (Betz & Rose, VPR): a move goes
// to a tile within `rlim` of the instance's tile, clipped to the region;
// `rlim` starts at the region side and after each round is scaled by
// 1 - 0.44 + the round's acceptance rate, clamped to [1, side].
//
// Cost evaluation is incremental. Each net caches its HPWL; a move rescans
// only the distinct nets on the moved instance, once each at the new
// position, weights each by the instance's pin count on it, and commits the
// rescanned costs only when the move is accepted. Every cost term (HPWL, and
// the squared overflow of integer areas over an integer tile capacity) is an
// integer, so the delta equals the one a full before/after recomputation
// gives, bit for bit: the accept decisions, the RNG draw sequence and hence
// every placement are the same as that reference loop's
// (Place.MatchesFullRecomputeOracle in tests/test_nxmap.cpp keeps it).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "hw/netlist.hpp"
#include "nxmap/techmap.hpp"

namespace hermes::nx {

struct PlaceOptions {
  /// Annealing rounds. A round makes one move per fabric instance (at least
  /// 16), so moves ~ fabric instances * this.
  unsigned iterations_per_instance = 40;
  double initial_temp = 10.0;
  double cooling = 0.875;  ///< temperature factor per round
  std::uint64_t seed = 7;
};

struct Placement {
  /// Tile (x, y) of each mapped instance, wiring instances included.
  std::vector<std::pair<unsigned, unsigned>> location;
  double hpwl = 0.0;          ///< final half-perimeter wirelength over the folded nets (tiles)
  double overflow = 0.0;      ///< residual capacity overflow (0 = legal)
  unsigned grid_side = 0;     ///< placement region actually used
};

Placement place(const hw::Module& module, const MappedDesign& design,
                const NxDevice& device, const PlaceOptions& options = {});

}  // namespace hermes::nx
