// The backend's one net model, shared by place, route and so STA.
//
// Wiring cells (hw::is_wiring) have no resources and no delay, so they are
// folded into the nets they connect. Each output wire of a fabric cell roots
// one net: its driver plus every fabric consumer the wire reaches, directly
// or through chains of wiring, one pin per consuming input slot. A const- or
// port-driven wire gets no net, nor does a root no fabric cell consumes.
// `place` anneals these nets; `route` prices each once, on its root wire, so
// a wire derived through wiring has no routed delay.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/netlist.hpp"
#include "nxmap/techmap.hpp"

namespace hermes::nx {

struct FoldedNets {
  std::vector<bool> wiring;  ///< per mapped instance: a wiring cell
  /// The pins of net `j` are `pins[start[j]] .. pins[start[j + 1] - 1]`,
  /// instance indices, driver first.
  std::vector<std::uint32_t> start{0};
  std::vector<std::uint32_t> pins;
  std::vector<hw::WireId> root;  ///< each net's root wire: its driver's output

  [[nodiscard]] std::size_t size() const { return root.size(); }
};

/// Folds the mapped design's wiring into nets, in order of driver cell and
/// then output. A wiring cell reached twice from one root is expanded once.
FoldedNets fold_nets(const hw::Module& module, const MappedDesign& design);

/// No anchor: a wiring cell with no fabric cell to share a tile with.
constexpr std::uint32_t kNoAnchor = UINT32_MAX;

/// The instance each wiring instance shares a tile with: the fabric cell at
/// the root of its first driven (not port) input, following wiring drivers
/// back through their first driven inputs; if that root is a const or a
/// port, its first fabric consumer (lowest cell index reached through
/// wiring); else kNoAnchor. Indexed by cell; kNoAnchor for fabric cells.
std::vector<std::uint32_t> wiring_anchors(const hw::Module& module,
                                          const MappedDesign& design,
                                          const std::vector<bool>& wiring);

}  // namespace hermes::nx
