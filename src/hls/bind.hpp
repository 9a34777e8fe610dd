// Binding — the third core HLS step on the CDFG.
//
// Assigns scheduled operations to shared functional-unit instances
// (multipliers, iterative dividers) and memory accesses to physical RAM
// ports. Because the FSM is in exactly one state at a time and block state
// ranges are disjoint, instances are shared across the whole function; the
// left-edge algorithm packs overlapping occupation intervals into the
// fewest instances. Virtual registers are bound 1:1 onto datapath registers
// (register merging is listed as future work in DESIGN.md).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hls/schedule.hpp"
#include "hw/netlist.hpp"
#include "ir/ir.hpp"

namespace hermes::hls {

struct BindingStats {
  unsigned multiplier_instances = 0;
  unsigned divider_instances = 0;
  unsigned memory_ports = 0;       ///< total RAM ports instantiated
  unsigned datapath_registers = 0; ///< physical registers after merging
  unsigned shared_ops = 0;         ///< ops mapped onto a shared instance
  unsigned merged_registers = 0;   ///< vregs folded into another register
};

/// The netlist cell an arithmetic or compare op is built from. Shared
/// functional units are keyed by it (plus the result width), so binding and
/// the FSMD generator agree on which ops may share one piece of hardware.
/// kMul carries no signedness: the low w bits of a w-bit product do not
/// depend on it.
hw::CellKind to_cell_kind(const ir::Instr& instr);

/// One shared functional-unit instance: a single `kind` cell of `width` bits.
struct FuUnit {
  hw::CellKind kind = hw::CellKind::kMul;
  unsigned width = 0;
  unsigned instance = 0;  ///< index among the units of one (kind, width)
};

/// Result of binding: per block, per instruction, the shared unit / memory
/// port index (only meaningful for ops of a shared class).
struct Binding {
  /// Index into `units`; same shape as schedule slots.
  std::vector<std::vector<unsigned>> fu_unit;
  std::vector<FuUnit> units;  ///< ordered by (kind, width, instance)
  std::vector<std::vector<unsigned>> mem_port;     ///< port index per load/store
  std::map<std::uint64_t, unsigned> ports_per_memory;
  /// Register binding: canonical physical register for each vreg (identity
  /// when unmerged). Merged vregs always have equal widths, and their
  /// scheduled write/read windows are disjoint by construction.
  std::vector<ir::RegId> reg_alias;
  BindingStats stats;

  [[nodiscard]] ir::RegId canonical(ir::RegId reg) const {
    return reg < reg_alias.size() ? reg_alias[reg] : reg;
  }
};

Binding bind(const ir::Function& function, const Schedule& schedule);

}  // namespace hermes::hls
