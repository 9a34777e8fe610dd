#include "nxmap/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace hermes::nx {
namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

bool is_wiring(hw::CellKind kind) {
  switch (kind) {
    case hw::CellKind::kConst:
    case hw::CellKind::kZext:
    case hw::CellKind::kSext:
    case hw::CellKind::kSlice:
    case hw::CellKind::kConcat:
      return true;
    default:
      return false;
  }
}

/// Input slots reading each wire, in CSR form: the cells reading wire `w` are
/// `cells[first[w]] .. cells[first[w + 1] - 1]`, one entry per input slot.
struct WireReaders {
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> cells;
};

WireReaders wire_readers(const hw::Module& module) {
  WireReaders readers;
  readers.first.assign(module.wire_count() + 1, 0);
  for (const hw::Cell& cell : module.cells()) {
    for (hw::WireId wire : cell.inputs) ++readers.first[wire + 1];
  }
  for (std::size_t w = 0; w < module.wire_count(); ++w) {
    readers.first[w + 1] += readers.first[w];
  }
  readers.cells.resize(readers.first.back());
  std::vector<std::uint32_t> fill(readers.first.begin(), readers.first.end() - 1);
  for (std::size_t c = 0; c < module.cells().size(); ++c) {
    for (hw::WireId wire : module.cells()[c].inputs) {
      readers.cells[fill[wire]++] = static_cast<std::uint32_t>(c);
    }
  }
  return readers;
}

/// Folded net model. Pins are stored in CSR form: the pins of net `j` are
/// `pins[start[j]] .. pins[start[j + 1] - 1]`, driver first.
struct NetList {
  std::vector<std::uint32_t> start{0};
  std::vector<std::uint32_t> pins;  ///< instance indices
  std::size_t size() const { return start.size() - 1; }
};

/// One net per output wire of each fabric cell: its driver, plus one pin per
/// fabric input slot that reads the wire or a wire derived from it through
/// wiring cells. A wiring cell reached twice is expanded once. Wires rooted at
/// a const or a port carry no net, and a net with no fabric consumer is left
/// out (its HPWL is always 0).
NetList fold_nets(const hw::Module& module, const std::vector<bool>& wiring,
                  const WireReaders& readers) {
  const std::vector<hw::Cell>& cells = module.cells();
  NetList nets;
  std::vector<std::uint32_t> seen(cells.size(), kNone);  // expanding root wire
  std::vector<hw::WireId> stack;
  std::uint32_t root = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (wiring[c]) continue;
    for (hw::WireId out : cells[c].outputs) {
      ++root;
      nets.pins.push_back(static_cast<std::uint32_t>(c));
      stack.assign(1, out);
      while (!stack.empty()) {
        const hw::WireId wire = stack.back();
        stack.pop_back();
        for (std::uint32_t p = readers.first[wire]; p < readers.first[wire + 1];
             ++p) {
          const std::uint32_t reader = readers.cells[p];
          if (!wiring[reader]) {
            nets.pins.push_back(reader);
          } else if (seen[reader] != root) {
            seen[reader] = root;
            for (hw::WireId next : cells[reader].outputs) stack.push_back(next);
          }
        }
      }
      if (nets.pins.size() - nets.start.back() > 1) {
        nets.start.push_back(static_cast<std::uint32_t>(nets.pins.size()));
      } else {
        nets.pins.pop_back();
      }
    }
  }
  return nets;
}

/// The instance each wiring cell shares a tile with: the fabric cell at the
/// root of its first driven (not port) input, following wiring drivers back
/// through their first driven inputs; if that root is a const or a port,
/// its first fabric consumer (lowest cell index reached through wiring);
/// else kNone. Cells on a wiring-only loop anchor to nothing.
std::vector<std::uint32_t> wiring_anchors(const hw::Module& module,
                                          const MappedDesign& design,
                                          const std::vector<bool>& wiring,
                                          const WireReaders& readers) {
  const std::vector<hw::Cell>& cells = module.cells();
  // Wiring cells in topological order of their wiring-to-wiring connections.
  std::vector<std::uint32_t> pending(cells.size(), 0);
  std::vector<std::uint32_t> order;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!wiring[c]) continue;
    for (hw::WireId wire : cells[c].inputs) {
      const std::size_t driver = design.driver_of_wire[wire];
      if (driver != SIZE_MAX && wiring[driver]) ++pending[c];
    }
    if (pending[c] == 0) order.push_back(static_cast<std::uint32_t>(c));
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (hw::WireId out : cells[order[k]].outputs) {
      for (std::uint32_t p = readers.first[out]; p < readers.first[out + 1]; ++p) {
        const std::uint32_t reader = readers.cells[p];
        if (wiring[reader] && --pending[reader] == 0) order.push_back(reader);
      }
    }
  }

  std::vector<std::uint32_t> up(cells.size(), kNone);
  for (std::uint32_t c : order) {
    for (hw::WireId wire : cells[c].inputs) {
      const std::size_t driver = design.driver_of_wire[wire];
      if (driver == SIZE_MAX) continue;
      up[c] = wiring[driver] ? up[driver] : static_cast<std::uint32_t>(driver);
      break;
    }
  }
  std::vector<std::uint32_t> down(cells.size(), kNone);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (hw::WireId out : cells[*it].outputs) {
      for (std::uint32_t p = readers.first[out]; p < readers.first[out + 1]; ++p) {
        const std::uint32_t reader = readers.cells[p];
        down[*it] = std::min(down[*it], wiring[reader] ? down[reader] : reader);
      }
    }
    if (up[*it] == kNone) up[*it] = down[*it];
  }
  return up;
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

  std::vector<bool> wiring(n, false);
  std::vector<std::uint32_t> fabric;
  std::vector<std::int64_t> area(n, 0);
  std::size_t area_luts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const MappedInstance& inst = design.instances[i];
    wiring[i] = inst.cell_index != SIZE_MAX &&
                is_wiring(module.cells()[inst.cell_index].kind);
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

  const WireReaders readers = wire_readers(module);
  const NetList nets = fold_nets(module, wiring, readers);
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
      wiring_anchors(module, design, wiring, readers);
  placement.location.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t at = wiring[i] ? anchor[i] : static_cast<std::uint32_t>(i);
    placement.location[i] = at == kNone ? std::pair<unsigned, unsigned>{0, 0}
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
