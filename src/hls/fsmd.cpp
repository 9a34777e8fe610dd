#include "hls/fsmd.hpp"

#include <cassert>
#include <map>

#include "common/bits.hpp"
#include "common/strings.hpp"

namespace hermes::hls {
namespace {

class FsmdBuilder {
 public:
  FsmdBuilder(const ir::Function& function, const Schedule& schedule,
              const Binding& binding)
      : f_(function),
        schedule_(schedule),
        binding_(binding),
        module_(function.name()) {}

  Result<FsmdResult> build() {
    needs_reg_ = regs_needing_registers(f_);

    num_states_ = schedule_.num_states;
    idle_state_ = num_states_;
    done_state_ = num_states_ + 1;
    state_bits_ = bit_width_of(done_state_ > 1 ? done_state_ : 1);

    // State register placeholder: the d input is wired at the end, once all
    // transitions are known. Reset into IDLE.
    state_d_ = module_.add_wire(state_bits_, "state_next");
    const hw::WireId one = module_.make_const(1, 1, "const1");
    state_q_ = module_.make_register(state_d_, one, idle_state_, "state");

    build_ports();
    build_memories();
    collect_writers();
    make_result_placeholders();
    build_datapath();
    build_memory_ports();
    build_registers();
    build_fsm();
    // The emitters above build every register, tap and port slot a schedule
    // could need; keep only what reaches a port or a RAM write (fsmd.hpp).
    hw::sweep_dead_cells(module_);

    Status valid = module_.validate();
    if (!valid.ok()) return valid;

    FsmdResult result{std::move(module_), num_states_ + 2, idle_state_,
                      done_state_, f_.memories().size()};
    return result;
  }

 private:
  // ---- small helpers ----
  hw::WireId state_eq(unsigned state) {
    auto it = eq_cache_.find(state);
    if (it != eq_cache_.end()) return it->second;
    const hw::WireId c = module_.make_const(state, state_bits_);
    const hw::WireId eq = module_.make_binop(hw::CellKind::kEq, state_q_, c, 1,
                                             format("st_eq_%u", state));
    eq_cache_[state] = eq;
    return eq;
  }

  /// Balanced OR reduction (log depth), width-generic.
  hw::WireId or_tree(std::vector<hw::WireId> wires, unsigned width) {
    if (wires.empty()) return module_.make_const(0, width);
    while (wires.size() > 1) {
      std::vector<hw::WireId> next;
      for (std::size_t i = 0; i + 1 < wires.size(); i += 2) {
        next.push_back(
            module_.make_binop(hw::CellKind::kOr, wires[i], wires[i + 1], width));
      }
      if (wires.size() % 2) next.push_back(wires.back());
      wires = std::move(next);
    }
    return wires[0];
  }

  /// One-hot multiplexer. All case selects are mutually exclusive by
  /// construction (they compare the FSM state register against distinct
  /// values, or cover disjoint state ranges), so the classic AND-OR one-hot
  /// structure applies: out = OR_i(sel_i ? value_i : 0) | (none ? default : 0).
  /// Log-depth — this is what a synthesis tool builds for one-hot selects,
  /// and it keeps the FSM's next-state logic off the critical path.
  hw::WireId mux_chain(hw::WireId fallback,
                       const std::vector<std::pair<hw::WireId, hw::WireId>>& cases) {
    if (cases.empty()) return fallback;
    const unsigned width = module_.wire_width(fallback);
    const hw::WireId zero = module_.make_const(0, width);
    std::vector<hw::WireId> terms;
    std::vector<hw::WireId> selects;
    terms.reserve(cases.size() + 1);
    for (const auto& [sel, value] : cases) {
      terms.push_back(module_.make_mux(sel, zero, value));
      selects.push_back(sel);
    }
    const hw::WireId any = or_tree(selects, 1);
    terms.push_back(module_.make_mux(any, fallback, zero));
    return or_tree(std::move(terms), width);
  }

  hw::WireId or_all(const std::vector<hw::WireId>& wires) {
    return or_tree(wires, 1);
  }

  // ---- construction stages ----
  void build_ports() {
    const hw::WireId start = module_.add_wire(1, "start");
    module_.add_input(start, "start");
    start_ = start;
    for (const ir::ParamDecl& param : f_.params) {
      if (param.is_array()) continue;
      const hw::WireId wire = module_.add_wire(param.type.bits, "arg_" + param.name);
      module_.add_input(wire, "arg_" + param.name);
      arg_ports_[param.reg] = wire;
    }
  }

  void build_memories() {
    for (const ir::MemDecl& decl : f_.memories()) {
      hw::Memory memory;
      memory.name = decl.name;
      memory.width = decl.element.bits;
      memory.depth = decl.depth;
      memory.dual_port = binding_.ports_per_memory.count(
                             &decl - f_.memories().data())
                             ? binding_.ports_per_memory.at(
                                   &decl - f_.memories().data()) > 1
                             : false;
      memory.init = decl.init;
      module_.add_memory(memory);
    }
  }

  /// result wire of each instruction, filled in during build_datapath.
  struct InstrRef {
    ir::BlockId block;
    std::size_t index;
    bool operator<(const InstrRef& other) const {
      return std::tie(block, index) < std::tie(other.block, other.index);
    }
  };

  void collect_writers() {
    // Writers are grouped by *physical* register: merged vregs share one
    // register, whose d-input mux carries every member's writers (their
    // write states are disjoint by the binder's packing).
    for (ir::BlockId b = 0; b < f_.num_blocks(); ++b) {
      const ir::Block& block = f_.block(b);
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        if (block.instrs[i].dest != ir::kNoReg) {
          writers_[binding_.canonical(block.instrs[i].dest)].push_back({b, i});
        }
      }
    }
  }

  /// Physical-register output wire for vreg r (resolved through the register
  /// binding; created on demand; the d-input mux is completed in
  /// build_registers()).
  hw::WireId reg_wire(ir::RegId vreg) {
    const ir::RegId r = binding_.canonical(vreg);
    auto it = reg_q_.find(r);
    if (it != reg_q_.end()) return it->second;
    const unsigned width = f_.reg_type(r).bits;
    // Placeholder d wire; connected later.
    const hw::WireId d = module_.add_wire(width, format("r%u_d", r));
    const hw::WireId en = module_.add_wire(1, format("r%u_en", r));
    const hw::WireId q = module_.make_register(d, en, 0, format("r%u", r));
    reg_q_[r] = q;
    reg_d_[r] = d;
    reg_en_[r] = en;
    return q;
  }

  /// Resolves the wire carrying operand `r` for the instruction at
  /// (block, index) starting in state `start`.
  hw::WireId operand_wire(ir::BlockId block, std::size_t index, ir::RegId r,
                          unsigned start_state) {
    // Last in-block writer before `index`.
    const ir::Block& blk = f_.block(block);
    std::size_t producer = SIZE_MAX;
    for (std::size_t j = 0; j < index; ++j) {
      if (blk.instrs[j].dest == r) producer = j;
    }
    if (producer != SIZE_MAX) {
      const InstrSlot& p = schedule_.blocks[block].slots[producer];
      if (p.is_const_wire) return result_wire_.at({block, producer});
      if (p.write_state == start_state) {
        return result_wire_.at({block, producer});  // chained
      }
      return reg_wire(r);
    }
    // No in-block producer: a const-wire vreg has no register at all.
    if (!needs_reg_[r]) {
      // Its unique writer is a const somewhere else in the function.
      const auto& ws = writers_.at(r);
      assert(ws.size() == 1);
      return result_wire_.at({ws[0].block, ws[0].index});
    }
    return reg_wire(r);
  }

  /// Pre-creates the result wire of every value-producing instruction so any
  /// consumer (chained, earlier in build order, or in another construction
  /// stage) can reference it before the producing hardware exists. Constants
  /// are materialized immediately; everything else gets a placeholder that
  /// the producing stage drives (directly as a cell output, or via tie()).
  void make_result_placeholders() {
    for (ir::BlockId b = 0; b < f_.num_blocks(); ++b) {
      const ir::Block& block = f_.block(b);
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const ir::Instr& instr = block.instrs[i];
        if (ir::is_terminator(instr.op)) continue;
        if (instr.op == ir::Op::kConst) {
          result_wire_[{b, i}] = module_.make_const(
              instr.imm, f_.reg_type(instr.dest).bits, format("c_%u_%zu", b, i));
          continue;
        }
        if (instr.dest == ir::kNoReg) continue;  // stores produce no value
        result_wire_[{b, i}] = module_.add_wire(
            f_.reg_type(instr.dest).bits, format("res_%u_%zu", b, i));
      }
    }
  }

  void build_datapath() {
    for (ir::BlockId b = 0; b < f_.num_blocks(); ++b) {
      const ir::Block& block = f_.block(b);
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const ir::Instr& instr = block.instrs[i];
        const InstrSlot& slot = schedule_.blocks[b].slots[i];
        if (ir::is_terminator(instr.op) || instr.op == ir::Op::kConst) continue;

        switch (instr.op) {
          case ir::Op::kCopy:
            tie(result_wire_.at({b, i}),
                operand_wire(b, i, instr.src[0], slot.start));
            break;
          case ir::Op::kZext:
          case ir::Op::kTrunc:
            drive({b, i}, hw::CellKind::kZext,
                  {operand_wire(b, i, instr.src[0], slot.start)});
            break;
          case ir::Op::kSext:
            drive({b, i}, hw::CellKind::kSext,
                  {operand_wire(b, i, instr.src[0], slot.start)});
            break;
          case ir::Op::kNot:
            drive({b, i}, hw::CellKind::kNot,
                  {operand_wire(b, i, instr.src[0], slot.start)});
            break;
          case ir::Op::kSelect: {
            const hw::WireId sel = operand_wire(b, i, instr.src[0], slot.start);
            const hw::WireId t = operand_wire(b, i, instr.src[1], slot.start);
            const hw::WireId e = operand_wire(b, i, instr.src[2], slot.start);
            drive({b, i}, hw::CellKind::kMux, {sel, e, t});
            break;
          }
          case ir::Op::kLoad:
          case ir::Op::kStore:
            // Port hardware built in build_memory_ports(); record access.
            mem_port_accesses_[{instr.imm, binding_.mem_port[b][i]}].push_back(
                {b, i});
            break;
          case ir::Op::kMul:
          case ir::Op::kDiv:
          case ir::Op::kRem:
            unit_ops_[binding_.fu_unit[b][i]].push_back({b, i});
            break;
          default: {
            // Plain dedicated binary cell.
            const hw::WireId a = operand_wire(b, i, instr.src[0], slot.start);
            const hw::WireId c = operand_wire(b, i, instr.src[1], slot.start);
            drive({b, i}, to_cell_kind(instr), {a, c});
            break;
          }
        }
      }
    }

    build_shared_fus();
  }

  /// (state >= lo) & (state <= hi) select wire.
  hw::WireId state_in_range(unsigned lo, unsigned hi) {
    if (lo == hi) return state_eq(lo);
    const hw::WireId clo = module_.make_const(lo, state_bits_);
    const hw::WireId chi = module_.make_const(hi, state_bits_);
    const hw::WireId ge = module_.make_binop(hw::CellKind::kLeU, clo, state_q_, 1);
    const hw::WireId le = module_.make_binop(hw::CellKind::kLeU, state_q_, chi, 1);
    return module_.make_binop(hw::CellKind::kAnd, ge, le, 1);
  }

  void build_shared_fus() {
    for (unsigned u = 0; u < binding_.units.size(); ++u) {
      const auto& [kind, width, instance] = binding_.units[u];
      const std::vector<InstrRef>& ops = unit_ops_[u];
      // Operand muxes selected by each op's occupation interval.
      hw::WireId a = module_.make_const(0, width);
      hw::WireId c = module_.make_const(0, width);
      for (const InstrRef& ref : ops) {
        const ir::Instr& instr = f_.block(ref.block).instrs[ref.index];
        const InstrSlot& slot = schedule_.blocks[ref.block].slots[ref.index];
        const hw::WireId sel = state_in_range(slot.start, slot.end);
        const hw::WireId oa =
            operand_wire(ref.block, ref.index, instr.src[0], slot.start);
        const hw::WireId oc =
            operand_wire(ref.block, ref.index, instr.src[1], slot.start);
        // Shared-FU operands are register-sourced for multi-cycle ops by
        // scheduling rule; width-extend to the FU width.
        a = module_.make_mux(sel, a, widen(oa, width, instr.type.is_signed));
        c = module_.make_mux(sel, c, widen(oc, width, instr.type.is_signed));
      }
      const hw::WireId out = module_.make_binop(
          kind, a, c, width,
          format("fu_%s_w%u_i%u", hw::to_string(kind), width, instance));
      for (const InstrRef& ref : ops) {
        tie(result_wire_.at(ref), out);
      }
    }
  }

  hw::WireId widen(hw::WireId wire, unsigned width, bool is_signed) {
    if (module_.wire_width(wire) == width) return wire;
    return is_signed ? module_.make_sext(wire, width)
                     : module_.make_zext(wire, width);
  }

  void build_registers() {
    // Argument latching in IDLE with start asserted.
    const hw::WireId idle_and_start = module_.make_binop(
        hw::CellKind::kAnd, state_eq(idle_state_), start_, 1, "latch_args");

    for (const auto& [r, writer_list] : writers_) {
      if (!needs_reg_[r]) continue;
      build_one_register(r, writer_list, idle_and_start);
    }
    // Parameter registers that are never rewritten by instructions still
    // need the IDLE latch.
    for (const ir::ParamDecl& param : f_.params) {
      if (param.is_array()) continue;
      if (!writers_.count(param.reg)) {
        build_one_register(param.reg, {}, idle_and_start);
      }
    }
  }

  void build_one_register(ir::RegId r, const std::vector<InstrRef>& writer_list,
                          hw::WireId idle_and_start) {
    const hw::WireId q = reg_wire(r);
    (void)q;
    const unsigned width = f_.reg_type(r).bits;

    std::vector<std::pair<hw::WireId, hw::WireId>> cases;
    std::vector<hw::WireId> enables;

    if (arg_ports_.count(r)) {
      cases.emplace_back(idle_and_start, arg_ports_.at(r));
      enables.push_back(idle_and_start);
    }
    for (const InstrRef& ref : writer_list) {
      const InstrSlot& slot = schedule_.blocks[ref.block].slots[ref.index];
      if (slot.is_const_wire) continue;  // excluded by needs_reg_, but be safe
      const hw::WireId sel = state_eq(slot.write_state);
      cases.emplace_back(sel, result_wire_.at(ref));
      enables.push_back(sel);
    }

    const hw::WireId fallback = module_.make_const(0, width);
    const hw::WireId d = mux_chain(fallback, cases);
    const hw::WireId en = or_all(enables);
    // Tie the placeholder d/en wires to the computed logic via copy cells.
    tie(reg_d_.at(r), d);
    tie(reg_en_.at(r), en);
  }

  /// Drives placeholder wire `dst` from `src` with a zext (same width).
  void tie(hw::WireId dst, hw::WireId src) {
    hw::Cell cell;
    cell.kind = hw::CellKind::kZext;
    cell.inputs = {src};
    cell.outputs = {dst};
    module_.add_cell(std::move(cell));
  }

  /// Creates a cell whose output is the pre-made result placeholder.
  void drive(InstrRef ref, hw::CellKind kind, std::vector<hw::WireId> inputs,
             std::uint64_t param = 0) {
    hw::Cell cell;
    cell.kind = kind;
    cell.inputs = std::move(inputs);
    cell.outputs = {result_wire_.at(ref)};
    cell.param = param;
    module_.add_cell(std::move(cell));
  }

  void build_memory_ports() {
    for (const auto& [port_key, accesses] : mem_port_accesses_) {
      const auto& [mem, port] = port_key;
      const ir::MemDecl& decl = f_.memories()[mem];
      const unsigned addr_bits =
          bit_width_of(decl.depth > 1 ? decl.depth - 1 : 1);

      std::vector<std::pair<hw::WireId, hw::WireId>> addr_cases;
      std::vector<std::pair<hw::WireId, hw::WireId>> data_cases;
      std::vector<hw::WireId> read_enables, write_enables;

      for (const InstrRef& ref : accesses) {
        const ir::Instr& instr = f_.block(ref.block).instrs[ref.index];
        const InstrSlot& slot = schedule_.blocks[ref.block].slots[ref.index];
        const hw::WireId sel = state_eq(slot.start);
        hw::WireId addr =
            operand_wire(ref.block, ref.index, instr.src[0], slot.start);
        if (module_.wire_width(addr) != addr_bits) {
          addr = module_.make_zext(addr, addr_bits);
        }
        addr_cases.emplace_back(sel, addr);
        if (instr.op == ir::Op::kLoad) {
          read_enables.push_back(sel);
        } else {
          hw::WireId data =
              operand_wire(ref.block, ref.index, instr.src[1], slot.start);
          if (module_.wire_width(data) != decl.element.bits) {
            data = module_.make_zext(data, decl.element.bits);
          }
          data_cases.emplace_back(sel, data);
          write_enables.push_back(sel);
        }
      }

      const hw::WireId addr0 = module_.make_const(0, addr_bits);
      const hw::WireId addr = mux_chain(addr0, addr_cases);
      const hw::WireId ren = or_all(read_enables);
      const hw::WireId wen = or_all(write_enables);
      const hw::WireId rdata = module_.make_ram_read(
          mem, addr, ren, format("%s_p%u_rdata", decl.name.c_str(), port));
      if (!data_cases.empty()) {
        const hw::WireId data0 = module_.make_const(0, decl.element.bits);
        const hw::WireId wdata = mux_chain(data0, data_cases);
        module_.make_ram_write(mem, addr, wdata, wen,
                               format("%s_p%u_w", decl.name.c_str(), port));
      }
      // Loads on this port deliver the port's registered read data.
      for (const InstrRef& ref : accesses) {
        if (f_.block(ref.block).instrs[ref.index].op == ir::Op::kLoad) {
          tie(result_wire_.at(ref), rdata);
        }
      }
    }
  }

  void build_fsm() {
    // Return value register.
    hw::WireId ret_q = hw::kNoWire;
    std::vector<std::pair<hw::WireId, hw::WireId>> ret_cases;
    std::vector<hw::WireId> ret_enables;

    // Next-state logic: default hold.
    std::vector<std::pair<hw::WireId, hw::WireId>> next_cases;

    // IDLE -> entry on start.
    const hw::WireId entry_const = module_.make_const(
        schedule_.blocks[f_.entry].entry_state, state_bits_);
    const hw::WireId idle_go = module_.make_binop(
        hw::CellKind::kAnd, state_eq(idle_state_), start_, 1);
    next_cases.emplace_back(idle_go, entry_const);

    // DONE -> IDLE when start deasserted.
    const hw::WireId not_start = module_.make_not(start_);
    const hw::WireId done_back = module_.make_binop(
        hw::CellKind::kAnd, state_eq(done_state_), not_start, 1);
    next_cases.emplace_back(done_back,
                            module_.make_const(idle_state_, state_bits_));

    // Per-block: linear advance within the range, terminator at the exit.
    for (ir::BlockId b = 0; b < f_.num_blocks(); ++b) {
      const BlockSchedule& bs = schedule_.blocks[b];
      const ir::Instr& term = f_.block(b).terminator();
      const std::size_t term_index = f_.block(b).instrs.size() - 1;

      for (unsigned s = bs.entry_state; s < bs.exit_state; ++s) {
        next_cases.emplace_back(state_eq(s),
                                module_.make_const(s + 1, state_bits_));
      }
      const hw::WireId at_exit = state_eq(bs.exit_state);
      switch (term.op) {
        case ir::Op::kBr: {
          const hw::WireId target = module_.make_const(
              schedule_.blocks[term.target0].entry_state, state_bits_);
          next_cases.emplace_back(at_exit, target);
          break;
        }
        case ir::Op::kCondBr: {
          const hw::WireId cond =
              operand_wire(b, term_index, term.src[0], bs.exit_state);
          const hw::WireId t0 = module_.make_const(
              schedule_.blocks[term.target0].entry_state, state_bits_);
          const hw::WireId t1 = module_.make_const(
              schedule_.blocks[term.target1].entry_state, state_bits_);
          const hw::WireId target = module_.make_mux(cond, t1, t0);
          next_cases.emplace_back(at_exit, target);
          break;
        }
        case ir::Op::kRet: {
          next_cases.emplace_back(
              at_exit, module_.make_const(done_state_, state_bits_));
          if (term.src[0] != ir::kNoReg) {
            const hw::WireId value =
                operand_wire(b, term_index, term.src[0], bs.exit_state);
            ret_cases.emplace_back(at_exit, value);
            ret_enables.push_back(at_exit);
          }
          break;
        }
        default:
          break;
      }
    }

    const hw::WireId next = mux_chain(state_q_, next_cases);
    tie(state_d_, next);

    // done output.
    const hw::WireId done = state_eq(done_state_);
    module_.add_output(done, "done");

    // return_value output.
    if (f_.return_type.bits != 0) {
      const unsigned width = f_.return_type.bits;
      const hw::WireId fallback = module_.make_const(0, width);
      const hw::WireId d = mux_chain(fallback, ret_cases);
      const hw::WireId en = or_all(ret_enables);
      ret_q = module_.make_register(d, en, 0, "ret_value");
      module_.add_output(ret_q, "return_value");
    }
  }

  const ir::Function& f_;
  const Schedule& schedule_;
  const Binding& binding_;
  hw::Module module_;

  std::vector<bool> needs_reg_;
  unsigned num_states_ = 0, idle_state_ = 0, done_state_ = 0;
  unsigned state_bits_ = 1;
  hw::WireId state_q_ = hw::kNoWire, state_d_ = hw::kNoWire;
  hw::WireId start_ = hw::kNoWire;

  std::map<unsigned, hw::WireId> eq_cache_;
  std::map<ir::RegId, hw::WireId> arg_ports_;
  std::map<ir::RegId, hw::WireId> reg_q_, reg_d_, reg_en_;
  std::map<ir::RegId, std::vector<InstrRef>> writers_;
  std::map<InstrRef, hw::WireId> result_wire_;
  std::map<std::pair<std::uint64_t, unsigned>, std::vector<InstrRef>>
      mem_port_accesses_;
  std::map<unsigned, std::vector<InstrRef>> unit_ops_;  ///< by Binding::units index
};

}  // namespace

Result<FsmdResult> generate_fsmd(const ir::Function& function,
                                 const Schedule& schedule,
                                 const Binding& binding) {
  return FsmdBuilder(function, schedule, binding).build();
}

}  // namespace hermes::hls
