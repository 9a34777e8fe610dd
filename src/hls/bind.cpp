#include "hls/bind.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

namespace hermes::hls {
namespace {

/// One scheduled occupation interval of a shared resource.
struct Interval {
  unsigned start, end;
  ir::BlockId block;
  std::size_t index;  ///< instruction index within the block
};

/// Left-edge packing: sorts by start and assigns each interval the lowest
/// instance whose last interval ended before it starts.
unsigned left_edge(std::vector<Interval>& intervals,
                   const std::function<void(const Interval&, unsigned)>& assign) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return std::tie(a.start, a.end) < std::tie(b.start, b.end);
            });
  std::vector<unsigned> instance_free_at;  // first state the instance is free
  for (const Interval& interval : intervals) {
    unsigned chosen = static_cast<unsigned>(instance_free_at.size());
    for (unsigned i = 0; i < instance_free_at.size(); ++i) {
      if (instance_free_at[i] <= interval.start) {
        chosen = i;
        break;
      }
    }
    if (chosen == instance_free_at.size()) instance_free_at.push_back(0);
    instance_free_at[chosen] = interval.end + 1;
    assign(interval, chosen);
  }
  return static_cast<unsigned>(instance_free_at.size());
}

}  // namespace

hw::CellKind to_cell_kind(const ir::Instr& instr) {
  using ir::Op;
  using hw::CellKind;
  switch (instr.op) {
    case Op::kAdd: return CellKind::kAdd;
    case Op::kSub: return CellKind::kSub;
    case Op::kMul: return CellKind::kMul;
    case Op::kDiv: return instr.type.is_signed ? CellKind::kDivS : CellKind::kDivU;
    case Op::kRem: return instr.type.is_signed ? CellKind::kRemS : CellKind::kRemU;
    case Op::kAnd: return CellKind::kAnd;
    case Op::kOr: return CellKind::kOr;
    case Op::kXor: return CellKind::kXor;
    case Op::kShl: return CellKind::kShl;
    case Op::kShr: return instr.type.is_signed ? CellKind::kShrS : CellKind::kShrU;
    case Op::kEq: return CellKind::kEq;
    case Op::kNe: return CellKind::kNe;
    case Op::kLt: return instr.type.is_signed ? CellKind::kLtS : CellKind::kLtU;
    case Op::kLe: return instr.type.is_signed ? CellKind::kLeS : CellKind::kLeU;
    default: return CellKind::kConst;  // handled separately
  }
}

Binding bind(const ir::Function& function, const Schedule& schedule) {
  Binding binding;
  binding.fu_unit.resize(function.num_blocks());
  binding.mem_port.resize(function.num_blocks());
  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    const std::size_t n = function.block(b).instrs.size();
    binding.fu_unit[b].assign(n, 0);
    binding.mem_port[b].assign(n, 0);
  }

  // Group shareable ops by the (cell kind, result width) the FSMD builds
  // their unit from: an instance is a concrete piece of hardware, so only
  // ops that one cell can compute share it.
  std::map<std::pair<hw::CellKind, unsigned>, std::vector<Interval>> groups;
  std::map<std::uint64_t, std::vector<Interval>> mem_accesses;

  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    const ir::Block& block = function.block(b);
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      const ir::Instr& instr = block.instrs[i];
      const InstrSlot& slot = schedule.blocks[b].slots[i];
      if (slot.is_const_wire) continue;
      if (instr.op == ir::Op::kLoad || instr.op == ir::Op::kStore) {
        // A port is held only during the access state.
        mem_accesses[instr.imm].push_back({slot.start, slot.start, b, i});
        continue;
      }
      const FuClass fu = fu_class_of(instr.op);
      if (fu == FuClass::kMultiplier || fu == FuClass::kDivider) {
        groups[{to_cell_kind(instr), function.reg_type(instr.dest).bits}]
            .push_back({slot.start, slot.end, b, i});
      }
    }
  }

  for (auto& [key, intervals] : groups) {
    const auto first = static_cast<unsigned>(binding.units.size());
    const unsigned instances = left_edge(
        intervals, [&](const Interval& interval, unsigned instance) {
          binding.fu_unit[interval.block][interval.index] = first + instance;
        });
    for (unsigned instance = 0; instance < instances; ++instance) {
      binding.units.push_back({key.first, key.second, instance});
    }
    if (intervals.size() > instances) {
      binding.stats.shared_ops +=
          static_cast<unsigned>(intervals.size()) - instances;
    }
    if (key.first == hw::CellKind::kMul) {
      binding.stats.multiplier_instances += instances;
    } else {
      binding.stats.divider_instances += instances;
    }
  }

  for (auto& [mem, intervals] : mem_accesses) {
    const unsigned ports = left_edge(
        intervals, [&](const Interval& interval, unsigned port) {
          binding.mem_port[interval.block][interval.index] = port;
        });
    binding.ports_per_memory[mem] = ports;
    binding.stats.memory_ports += ports;
  }
  // Memories that are never accessed still need one port to exist.
  for (std::size_t m = 0; m < function.memories().size(); ++m) {
    if (!binding.ports_per_memory.count(m)) binding.ports_per_memory[m] = 0;
  }

  // Register binding. Default: one datapath register per register-backed
  // vreg that is actually written. With merging on, block-local single-def
  // temporaries whose scheduled live windows [write_state, last_read) do not
  // overlap are packed into shared physical registers (left-edge), exactly
  // like FU instances above.
  const std::vector<bool> needs_reg = regs_needing_registers(function);
  std::vector<bool> written(function.num_regs(), false);
  for (const ir::ParamDecl& param : function.params) {
    if (!param.is_array()) written[param.reg] = true;
  }
  std::vector<unsigned> defs(function.num_regs(), 0);
  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    for (const ir::Instr& instr : function.block(b).instrs) {
      if (instr.dest != ir::kNoReg) {
        written[instr.dest] = true;
        ++defs[instr.dest];
      }
    }
  }

  binding.reg_alias.resize(function.num_regs());
  for (std::size_t r = 0; r < function.num_regs(); ++r) {
    binding.reg_alias[r] = static_cast<ir::RegId>(r);
  }

  if (schedule.constraints.merge_registers) {
    // Candidate discovery: single-def, register-backed, non-parameter vregs
    // whose def and every use live in the same block.
    std::vector<bool> is_param(function.num_regs(), false);
    for (const ir::ParamDecl& param : function.params) {
      if (!param.is_array()) is_param[param.reg] = true;
    }
    struct Window {
      ir::RegId reg;
      unsigned width;
      unsigned start;  ///< write_state of the def
      unsigned end;    ///< max consumer start (exclusive bound for packing)
      ir::BlockId block;
      bool valid = true;
    };
    std::map<ir::RegId, Window> windows;
    std::vector<ir::BlockId> def_block(function.num_regs(), ir::kNoBlock);
    for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
      const ir::Block& block = function.block(b);
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const ir::Instr& instr = block.instrs[i];
        const InstrSlot& slot = schedule.blocks[b].slots[i];
        if (instr.dest != ir::kNoReg && defs[instr.dest] == 1 &&
            needs_reg[instr.dest] && !is_param[instr.dest] &&
            !slot.is_const_wire) {
          def_block[instr.dest] = b;
          Window window;
          window.reg = instr.dest;
          window.width = function.reg_type(instr.dest).bits;
          window.start = slot.write_state;
          window.end = slot.write_state;  // extended by readers below
          window.block = b;
          windows[instr.dest] = window;
        }
      }
    }
    for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
      const ir::Block& block = function.block(b);
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const ir::Instr& instr = block.instrs[i];
        const InstrSlot& slot = schedule.blocks[b].slots[i];
        for (unsigned s = 0; s < instr.num_srcs(); ++s) {
          const ir::RegId reg = instr.src[s];
          if (reg == ir::kNoReg) continue;
          const auto it = windows.find(reg);
          if (it == windows.end()) continue;
          if (def_block[reg] != b) {
            it->second.valid = false;  // escapes its block
          } else {
            // Held until the end of the reader's occupation (operands must
            // stay stable through multi-cycle consumers).
            it->second.end = std::max(it->second.end, slot.end);
          }
        }
      }
    }

    // Left-edge pack per width class.
    std::map<unsigned, std::vector<Window>> by_width;
    for (auto& [reg, window] : windows) {
      if (window.valid) by_width[window.width].push_back(window);
    }
    for (auto& [width, intervals] : by_width) {
      std::sort(intervals.begin(), intervals.end(),
                [](const Window& a, const Window& b) {
                  return std::tie(a.start, a.end, a.reg) <
                         std::tie(b.start, b.end, b.reg);
                });
      // Slot list: representative vreg + first state it is free again.
      std::vector<std::pair<ir::RegId, unsigned>> slots;
      for (const Window& window : intervals) {
        bool placed = false;
        for (auto& [rep, free_at] : slots) {
          // A register may accept a new value on the edge that closes the
          // last state its previous value is read in (read-then-write).
          if (free_at <= window.start) {
            binding.reg_alias[window.reg] = rep;
            free_at = window.end + 1;
            placed = true;
            ++binding.stats.merged_registers;
            break;
          }
        }
        if (!placed) {
          slots.emplace_back(window.reg, window.end + 1);
        }
      }
    }
  }

  for (std::size_t r = 0; r < function.num_regs(); ++r) {
    if (needs_reg[r] && written[r] &&
        binding.reg_alias[r] == static_cast<ir::RegId>(r)) {
      ++binding.stats.datapath_registers;
    }
  }
  return binding;
}

}  // namespace hermes::hls
