#include "hls/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/strings.hpp"

namespace hermes::hls {
namespace {

// Hazard separation rules (mirrored by fsmd.cpp):
//
//   RAW      consumer.start >= producer.write_state, equality = chaining
//            (allowed only if producer.chain_out && consumer.chain_in and
//            the accumulated combinational delay fits the period);
//            otherwise consumer.start >= producer.write_state + 1.
//   WAR      writer.start >= reader.end            (same state is safe: the
//            reader's result is captured on the same edge that commits the
//            overwrite).
//   WAW      writer2.start >= writer1.write_state + 1 (a register accepts one
//            value per edge).
//   MemRAW   load.start >= store.start             (the simulator commits
//            writes before read sampling — write-first port).
//   MemWAR   store.start >= load.start + 1.
//   MemWAW   store2.start >= store1.start + 1.
//   Control  terminator.start >= dep.end.

struct OpInfo {
  OpCharacterization ch;
  bool is_const_wire = false;
  bool is_terminator = false;
  FuClass fu = FuClass::kNone;
  std::uint64_t mem = 0;  ///< memory index for load/store
};

}  // namespace

std::vector<bool> regs_needing_registers(const ir::Function& function) {
  std::vector<unsigned> writers(function.num_regs(), 0);
  std::vector<bool> nonconst_writer(function.num_regs(), false);
  for (const ir::ParamDecl& param : function.params) {
    if (!param.is_array()) {
      ++writers[param.reg];  // the IDLE-state argument latch counts
      nonconst_writer[param.reg] = true;
    }
  }
  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    for (const ir::Instr& instr : function.block(b).instrs) {
      if (instr.dest == ir::kNoReg) continue;
      ++writers[instr.dest];
      if (instr.op != ir::Op::kConst) nonconst_writer[instr.dest] = true;
    }
  }
  std::vector<bool> needs(function.num_regs(), false);
  for (std::size_t r = 0; r < function.num_regs(); ++r) {
    needs[r] = writers[r] > 1 || nonconst_writer[r];
  }
  return needs;
}

Result<Schedule> schedule(const ir::Function& function, const TechLibrary& lib,
                          const Constraints& constraints) {
  Schedule result;
  result.constraints = constraints;
  result.blocks.resize(function.num_blocks());

  const std::vector<bool> needs_reg = regs_needing_registers(function);
  const double usable = lib.usable_period(constraints.clock_period_ns);

  // Memory port counts: 2 for (paper: True Dual-Port) RAMs, else 1.
  auto mem_ports = [&](std::uint64_t mem) -> unsigned {
    // Interface memories are exposed as TDP blocks (host on one port,
    // accelerator on the other is the physical arrangement; within the
    // accelerator both ports are usable while it owns the memory).
    const ir::MemDecl& decl = function.memories()[mem];
    return decl.is_interface || decl.depth >= 64 ? 2 : 1;
  };

  unsigned next_state = 0;

  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    const ir::Block& block = function.block(b);
    const ir::BlockCdfg cdfg = ir::build_block_cdfg(function, b);
    const std::size_t n = block.instrs.size();

    BlockSchedule& sched = result.blocks[b];
    sched.entry_state = next_state;
    sched.slots.resize(n);

    // Characterize.
    std::vector<OpInfo> info(n);
    for (std::size_t i = 0; i < n; ++i) {
      const ir::Instr& instr = block.instrs[i];
      OpInfo& oi = info[i];
      oi.is_terminator = ir::is_terminator(instr.op);
      oi.fu = constraints.enforce_resources ? fu_class_of(instr.op)
                                            : FuClass::kNone;
      // Loads/stores always contend for ports (they are physical).
      if (instr.op == ir::Op::kLoad || instr.op == ir::Op::kStore) {
        oi.fu = FuClass::kMemoryPort;
        oi.mem = instr.imm;
      }
      if (instr.op == ir::Op::kConst && !needs_reg[instr.dest]) {
        oi.is_const_wire = true;
        oi.ch.latency = 0;
        oi.ch.delay_ns = 0.0;
        oi.ch.chain_out = true;
        continue;
      }
      if (oi.is_terminator) {
        oi.ch.latency = 1;
        oi.ch.delay_ns = lib.target().lut_delay_ns;  // next-state mux level
        oi.ch.chain_in = true;
        oi.ch.chain_out = false;
        continue;
      }
      oi.ch = lib.characterize(instr.op, instr.type.bits,
                               constraints.clock_period_ns);
      if (!constraints.allow_chaining) {
        oi.ch.chain_in = false;
        oi.ch.chain_out = false;
      }
      // Multiplier FU sharing only kicks in when the op needs a DSP.
      if (instr.op == ir::Op::kMul && oi.fu == FuClass::kMultiplier &&
          !constraints.enforce_resources) {
        oi.fu = FuClass::kNone;
      }
    }

    // Longest-path priority (in latency states) toward the terminator.
    std::vector<double> priority(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      for (const ir::Dep& dep : cdfg.nodes[i].deps) {
        priority[dep.on] = std::max(
            priority[dep.on],
            priority[i] + std::max<unsigned>(info[dep.on].ch.latency, 1));
      }
    }

    // Resource occupancy per local state.
    std::map<unsigned, unsigned> mul_busy, div_busy;     // state -> count
    std::map<std::pair<std::uint64_t, unsigned>, unsigned> port_busy;

    auto fu_available = [&](const OpInfo& oi, unsigned start) {
      if (!constraints.enforce_resources && oi.fu != FuClass::kMemoryPort) {
        return true;
      }
      const unsigned span = std::max<unsigned>(oi.ch.latency, 1);
      for (unsigned s = start; s < start + span; ++s) {
        switch (oi.fu) {
          case FuClass::kMultiplier:
            if (mul_busy[s] >= constraints.multipliers) return false;
            break;
          case FuClass::kDivider:
            if (div_busy[s] >= constraints.dividers) return false;
            break;
          case FuClass::kMemoryPort:
            // Ports are only held in the access state (start).
            if (s == start && port_busy[{oi.mem, s}] >= mem_ports(oi.mem)) {
              return false;
            }
            break;
          case FuClass::kNone:
            break;
        }
      }
      return true;
    };
    auto fu_reserve = [&](const OpInfo& oi, unsigned start) {
      const unsigned span = std::max<unsigned>(oi.ch.latency, 1);
      for (unsigned s = start; s < start + span; ++s) {
        switch (oi.fu) {
          case FuClass::kMultiplier:
            result.peak_multipliers = std::max(result.peak_multipliers, ++mul_busy[s]);
            break;
          case FuClass::kDivider:
            result.peak_dividers = std::max(result.peak_dividers, ++div_busy[s]);
            break;
          case FuClass::kMemoryPort:
            if (s == start) {
              result.peak_memory_ports =
                  std::max(result.peak_memory_ports, ++port_busy[{oi.mem, s}]);
            }
            break;
          case FuClass::kNone:
            break;
        }
      }
    };

    std::vector<bool> placed(n, false);
    std::size_t remaining = n;

    // Constants-as-wires are placed implicitly.
    for (std::size_t i = 0; i < n; ++i) {
      if (info[i].is_const_wire) {
        sched.slots[i] = {0, 0, 0, true, 0.0};
        placed[i] = true;
        --remaining;
      }
    }

    // Cycle-by-cycle list scheduling over local states.
    unsigned cycle = 0;
    const unsigned kCycleCap = 1'000'000;
    while (remaining > 0) {
      if (cycle > kCycleCap) {
        return Status::Error(ErrorCode::kInternal,
                             format("scheduler did not converge in block %u", b));
      }
      // Gather ready ops: all deps placed and start constraints allow `cycle`.
      std::vector<std::size_t> ready;
      for (std::size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        if (info[i].is_terminator && remaining > 1) continue;  // always last
        bool deps_ok = true;
        unsigned earliest = 0;
        for (const ir::Dep& dep : cdfg.nodes[i].deps) {
          if (!placed[dep.on]) {
            deps_ok = false;
            break;
          }
          const InstrSlot& p = sched.slots[dep.on];
          const OpInfo& pi = info[dep.on];
          unsigned min_start = 0;
          switch (dep.kind) {
            case ir::DepKind::kRaw:
              if (pi.is_const_wire) {
                min_start = 0;
              } else if (pi.ch.chain_out && info[i].ch.chain_in) {
                min_start = p.write_state;  // chaining candidate
              } else {
                min_start = p.write_state + 1;
              }
              break;
            case ir::DepKind::kWar:
              min_start = pi.is_const_wire ? 0 : p.end;
              break;
            case ir::DepKind::kWaw:
              min_start = pi.is_const_wire ? 0 : p.write_state + 1;
              break;
            case ir::DepKind::kMemRaw:
              min_start = p.start;
              break;
            case ir::DepKind::kMemWar:
            case ir::DepKind::kMemWaw:
              min_start = p.start + 1;
              break;
            case ir::DepKind::kControl:
              min_start = p.end;
              break;
          }
          earliest = std::max(earliest, min_start);
        }
        if (deps_ok && earliest <= cycle) ready.push_back(i);
      }

      std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t c) {
        return priority[a] > priority[c];
      });

      bool any_placed = false;
      for (std::size_t i : ready) {
        // Chaining feasibility at this exact cycle: accumulate comb delay
        // from RAW producers whose write_state == cycle.
        double in_delay = 0.0;
        bool chain_violation = false;
        for (const ir::Dep& dep : cdfg.nodes[i].deps) {
          if (dep.kind != ir::DepKind::kRaw) continue;
          const InstrSlot& p = sched.slots[dep.on];
          const OpInfo& pi = info[dep.on];
          if (pi.is_const_wire) continue;
          if (p.write_state == cycle) {
            if (!(pi.ch.chain_out && info[i].ch.chain_in)) {
              chain_violation = true;  // must wait one more state
              break;
            }
            in_delay = std::max(in_delay, p.chain_delay_ns);
          }
        }
        if (chain_violation) continue;
        const double total_delay = in_delay + info[i].ch.delay_ns;
        if (info[i].ch.latency <= 1 && total_delay > usable && in_delay > 0.0) {
          continue;  // chain too long; retry next cycle reading from registers
        }
        if (!fu_available(info[i], cycle)) continue;

        InstrSlot& slot = sched.slots[i];
        slot.start = cycle;
        const unsigned span = std::max<unsigned>(info[i].ch.latency, 1);
        slot.end = cycle + span - 1;
        slot.chain_delay_ns = info[i].ch.latency <= 1 ? total_delay
                                                      : info[i].ch.delay_ns;
        // write_state: loads deliver one state after the access; everything
        // else writes on the closing edge of its last state.
        const ir::Instr& instr = block.instrs[i];
        slot.write_state = instr.op == ir::Op::kLoad ? slot.start + 1 : slot.end;
        fu_reserve(info[i], cycle);
        placed[i] = true;
        --remaining;
        any_placed = true;
      }
      // Re-gather at the same cycle after successful placements so newly
      // unblocked ops can chain into this state; advance only when stuck.
      if (!any_placed) ++cycle;
    }

    // Block exit: all register writes committed and terminator fired.
    unsigned exit_state = 0;
    std::size_t term_index = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (info[i].is_const_wire) continue;
      exit_state = std::max(exit_state, sched.slots[i].write_state);
      if (info[i].is_terminator) term_index = i;
    }
    exit_state = std::max(exit_state, sched.slots[term_index].start);
    // The terminator conceptually fires in the exit state.
    sched.slots[term_index].start = exit_state;
    sched.slots[term_index].end = exit_state;
    sched.slots[term_index].write_state = exit_state;

    // Lift local states to absolute ids.
    const unsigned local_states = exit_state + 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (info[i].is_const_wire) continue;
      sched.slots[i].start += sched.entry_state;
      sched.slots[i].end += sched.entry_state;
      sched.slots[i].write_state += sched.entry_state;
    }
    sched.exit_state = sched.entry_state + exit_state;
    next_state += local_states;
  }

  result.num_states = next_state;
  return result;
}

}  // namespace hermes::hls
