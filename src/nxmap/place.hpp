// Placement (paper Fig. 3: "place").
//
// Simulated-annealing placement of mapped instances onto the logic tile
// grid, minimizing half-perimeter wirelength with a quadratic penalty on
// tile capacity overflow. Random start, then fixed rounds of single-instance
// moves to a uniformly drawn tile under a geometric cooling schedule.
// Deterministic for a fixed seed.
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
  unsigned iterations_per_instance = 64;  ///< SA moves ~ N * this
  double initial_temp = 10.0;
  double cooling = 0.92;
  std::uint64_t seed = 7;
};

struct Placement {
  /// Tile (x, y) of each mapped instance.
  std::vector<std::pair<unsigned, unsigned>> location;
  double hpwl = 0.0;          ///< final half-perimeter wirelength (tiles)
  double overflow = 0.0;      ///< residual capacity overflow (0 = legal)
  unsigned grid_side = 0;     ///< placement region actually used
};

Placement place(const hw::Module& module, const MappedDesign& design,
                const NxDevice& device, const PlaceOptions& options = {});

}  // namespace hermes::nx
