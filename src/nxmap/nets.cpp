#include "nxmap/nets.hpp"

#include <algorithm>

namespace hermes::nx {
namespace {

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

}  // namespace

FoldedNets fold_nets(const hw::Module& module, const MappedDesign& design) {
  const std::vector<hw::Cell>& cells = module.cells();
  FoldedNets nets;
  // One instance per cell, in cell order, then one per memory.
  nets.wiring.assign(design.instances.size(), false);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    nets.wiring[c] = hw::is_wiring(cells[c].kind);
  }
  const WireReaders readers = wire_readers(module);
  // The last root (numbered from 1) to expand each wiring cell.
  std::vector<std::uint32_t> seen(cells.size(), 0);
  std::vector<hw::WireId> stack;
  std::uint32_t root = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (nets.wiring[c]) continue;
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
          if (!nets.wiring[reader]) {
            nets.pins.push_back(reader);
          } else if (seen[reader] != root) {
            seen[reader] = root;
            for (hw::WireId next : cells[reader].outputs) stack.push_back(next);
          }
        }
      }
      if (nets.pins.size() - nets.start.back() > 1) {
        nets.start.push_back(static_cast<std::uint32_t>(nets.pins.size()));
        nets.root.push_back(out);
      } else {
        nets.pins.pop_back();
      }
    }
  }
  return nets;
}

std::vector<std::uint32_t> wiring_anchors(const hw::Module& module,
                                          const MappedDesign& design,
                                          const std::vector<bool>& wiring) {
  const std::vector<hw::Cell>& cells = module.cells();
  const WireReaders readers = wire_readers(module);
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

  std::vector<std::uint32_t> up(cells.size(), kNoAnchor);
  for (std::uint32_t c : order) {
    for (hw::WireId wire : cells[c].inputs) {
      const std::size_t driver = design.driver_of_wire[wire];
      if (driver == SIZE_MAX) continue;
      up[c] = wiring[driver] ? up[driver] : static_cast<std::uint32_t>(driver);
      break;
    }
  }
  std::vector<std::uint32_t> down(cells.size(), kNoAnchor);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (hw::WireId out : cells[*it].outputs) {
      for (std::uint32_t p = readers.first[out]; p < readers.first[out + 1]; ++p) {
        const std::uint32_t reader = readers.cells[p];
        down[*it] = std::min(down[*it], wiring[reader] ? down[reader] : reader);
      }
    }
    if (up[*it] == kNoAnchor) up[*it] = down[*it];
  }
  return up;
}

}  // namespace hermes::nx
