#include "hw/netlist.hpp"

#include <cassert>
#include <unordered_set>

#include "common/fnv.hpp"
#include "common/strings.hpp"

namespace hermes::hw {

bool is_sequential(CellKind kind) {
  return kind == CellKind::kRegister || kind == CellKind::kRamRead ||
         kind == CellKind::kRamWrite;
}

bool is_wiring(CellKind kind) {
  return kind == CellKind::kConst || kind == CellKind::kZext ||
         kind == CellKind::kSext || kind == CellKind::kSlice ||
         kind == CellKind::kConcat;
}

WireId Module::add_wire(unsigned width, std::string name) {
  assert(width >= 1 && width <= 64);
  const WireId id = static_cast<WireId>(wire_widths_.size());
  wire_widths_.push_back(width);
  if (name.empty()) name = format("w%u", id);
  wire_names_.push_back(std::move(name));
  return id;
}

void Module::add_input(WireId wire, std::string name) {
  ports_.push_back({std::move(name), wire, /*is_input=*/true});
}

void Module::add_output(WireId wire, std::string name) {
  ports_.push_back({std::move(name), wire, /*is_input=*/false});
}

WireId Module::port_wire(std::string_view name) const {
  for (const Port& port : ports_) {
    if (port.name == name) return port.wire;
  }
  return kNoWire;
}

std::size_t Module::add_memory(Memory memory) {
  memories_.push_back(std::move(memory));
  return memories_.size() - 1;
}

std::size_t Module::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void Module::erase_cells(const std::vector<bool>& dead) {
  std::size_t kept = 0;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (dead[c]) continue;
    if (kept != c) cells_[kept] = std::move(cells_[c]);
    ++kept;
  }
  cells_.resize(kept);
  // Swept netlists outlive the sweep (the compile service caches them), so
  // they carry no spare capacity.
  cells_.shrink_to_fit();
}

void Module::erase_unreferenced_wires() {
  std::vector<bool> referenced(wire_widths_.size(), false);
  for (const Port& port : ports_) referenced[port.wire] = true;
  for (const Cell& cell : cells_) {
    for (WireId wire : cell.inputs) referenced[wire] = true;
    for (WireId wire : cell.outputs) referenced[wire] = true;
  }
  std::vector<WireId> renumbered(wire_widths_.size(), kNoWire);
  WireId kept = 0;
  for (WireId wire = 0; wire < wire_widths_.size(); ++wire) {
    if (!referenced[wire]) continue;
    renumbered[wire] = kept;
    if (kept != wire) {
      wire_widths_[kept] = wire_widths_[wire];
      wire_names_[kept] = std::move(wire_names_[wire]);
    }
    ++kept;
  }
  if (kept == wire_widths_.size()) return;
  wire_widths_.resize(kept);
  wire_names_.resize(kept);
  wire_widths_.shrink_to_fit();
  wire_names_.shrink_to_fit();
  for (Port& port : ports_) port.wire = renumbered[port.wire];
  for (Cell& cell : cells_) {
    for (WireId& wire : cell.inputs) wire = renumbered[wire];
    for (WireId& wire : cell.outputs) wire = renumbered[wire];
  }
}

WireId Module::make_const(std::uint64_t value, unsigned width, std::string name) {
  const WireId out = add_wire(width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kConst;
  cell.param = value & (width >= 64 ? ~0ULL : ((1ULL << width) - 1));
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_binop(CellKind kind, WireId a, WireId b, unsigned out_width,
                          std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = kind;
  cell.inputs = {a, b};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_not(WireId a, std::string name) {
  const WireId out = add_wire(wire_width(a), std::move(name));
  Cell cell;
  cell.kind = CellKind::kNot;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_mux(WireId sel, WireId if0, WireId if1, std::string name) {
  assert(wire_width(sel) == 1);
  assert(wire_width(if0) == wire_width(if1));
  const WireId out = add_wire(wire_width(if0), std::move(name));
  Cell cell;
  cell.kind = CellKind::kMux;
  cell.inputs = {sel, if0, if1};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_zext(WireId a, unsigned out_width, std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kZext;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_sext(WireId a, unsigned out_width, std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kSext;
  cell.inputs = {a};
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_slice(WireId a, unsigned lsb, unsigned out_width,
                          std::string name) {
  const WireId out = add_wire(out_width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kSlice;
  cell.inputs = {a};
  cell.outputs = {out};
  cell.param = lsb;
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_concat(const std::vector<WireId>& lsb_first, std::string name) {
  unsigned total = 0;
  for (WireId wire : lsb_first) total += wire_width(wire);
  const WireId out = add_wire(total, std::move(name));
  Cell cell;
  cell.kind = CellKind::kConcat;
  cell.inputs = lsb_first;
  cell.outputs = {out};
  add_cell(std::move(cell));
  return out;
}

WireId Module::make_register(WireId d, WireId en, std::uint64_t reset_value,
                             std::string name) {
  const WireId q = add_wire(wire_width(d), std::move(name));
  Cell cell;
  cell.kind = CellKind::kRegister;
  cell.inputs = {d, en};
  cell.outputs = {q};
  cell.param = reset_value;
  add_cell(std::move(cell));
  return q;
}

WireId Module::make_ram_read(std::size_t mem, WireId addr, WireId en,
                             std::string name) {
  const WireId data = add_wire(memories_.at(mem).width, std::move(name));
  Cell cell;
  cell.kind = CellKind::kRamRead;
  cell.inputs = {addr, en};
  cell.outputs = {data};
  cell.param = mem;
  add_cell(std::move(cell));
  return data;
}

void Module::make_ram_write(std::size_t mem, WireId addr, WireId data, WireId en,
                            std::string name) {
  Cell cell;
  cell.kind = CellKind::kRamWrite;
  cell.inputs = {addr, data, en};
  cell.param = mem;
  cell.name = std::move(name);
  add_cell(std::move(cell));
}

NetlistStats Module::stats() const {
  NetlistStats stats;
  stats.cells = cells_.size();
  stats.memories = memories_.size();
  for (const Memory& memory : memories_) {
    stats.memory_bits += memory.width * memory.depth;
  }
  for (const Cell& cell : cells_) {
    switch (cell.kind) {
      case CellKind::kRegister:
        ++stats.registers;
        stats.register_bits += wire_width(cell.outputs[0]);
        break;
      case CellKind::kAdd: case CellKind::kSub:
        ++stats.arithmetic;
        break;
      case CellKind::kMul:
        ++stats.arithmetic;
        ++stats.multipliers;
        break;
      case CellKind::kDivU: case CellKind::kDivS:
      case CellKind::kRemU: case CellKind::kRemS:
        ++stats.arithmetic;
        ++stats.dividers;
        break;
      case CellKind::kMux:
        ++stats.muxes;
        break;
      default:
        break;
    }
  }
  return stats;
}

std::uint64_t Module::digest() const {
  std::uint64_t hash = fnv::kOffsetBasis;
  const auto mix = [&hash](std::uint64_t value) {
    hash = fnv::mix_le64(hash, value);
  };
  mix(wire_widths_.size());
  for (unsigned width : wire_widths_) mix(width);
  mix(ports_.size());
  for (const Port& port : ports_) {
    mix(port.wire);
    mix(port.is_input ? 1 : 0);
  }
  mix(cells_.size());
  for (const Cell& cell : cells_) {
    mix(static_cast<std::uint64_t>(cell.kind));
    mix(cell.param);
    mix(cell.inputs.size());
    for (WireId wire : cell.inputs) mix(wire);
    mix(cell.outputs.size());
    for (WireId wire : cell.outputs) mix(wire);
  }
  mix(memories_.size());
  for (const Memory& memory : memories_) {
    mix(memory.width);
    mix(memory.depth);
    mix(memory.dual_port ? 1 : 0);
    mix(memory.init.size());
    for (std::uint64_t word : memory.init) mix(word);
  }
  return hash;
}

Status Module::validate() const {
  std::unordered_set<WireId> driven;
  auto check_wire = [&](WireId wire) {
    return wire < wire_widths_.size();
  };
  for (const Port& port : ports_) {
    if (!check_wire(port.wire)) {
      return Status::Error(ErrorCode::kInternal,
                           format("port %s references invalid wire", port.name.c_str()));
    }
    if (port.is_input) driven.insert(port.wire);
  }
  for (const Cell& cell : cells_) {
    for (WireId wire : cell.inputs) {
      if (!check_wire(wire)) {
        return Status::Error(ErrorCode::kInternal,
                             format("cell %s has invalid input wire", to_string(cell.kind)));
      }
    }
    for (WireId wire : cell.outputs) {
      if (!check_wire(wire)) {
        return Status::Error(ErrorCode::kInternal,
                             format("cell %s has invalid output wire", to_string(cell.kind)));
      }
      if (!driven.insert(wire).second) {
        return Status::Error(
            ErrorCode::kInternal,
            format("wire %s is multiply driven", wire_names_.at(wire).c_str()));
      }
    }
    if ((cell.kind == CellKind::kRamRead || cell.kind == CellKind::kRamWrite) &&
        cell.param >= memories_.size()) {
      return Status::Error(ErrorCode::kInternal, "RAM cell references invalid memory");
    }
    if (cell.kind == CellKind::kMux && wire_width(cell.inputs[0]) != 1) {
      return Status::Error(ErrorCode::kInternal, "mux select must be 1 bit");
    }
    if (cell.kind == CellKind::kRegister &&
        wire_width(cell.inputs[0]) != wire_width(cell.outputs[0])) {
      return Status::Error(ErrorCode::kInternal, "register d/q width mismatch");
    }
  }
  return Status::Ok();
}

}  // namespace hermes::hw

namespace hermes::hw {

std::size_t sweep_dead_cells(Module& module) {
  const std::vector<Cell>& cells = module.cells();
  // Uses of each wire: one per output port and per reading input slot.
  std::vector<std::uint32_t> uses(module.wire_count(), 0);
  for (const Port& port : module.ports()) {
    if (!port.is_input) ++uses[port.wire];
  }
  // Driving cells of each wire, in CSR form.
  std::vector<std::uint32_t> driver_start(module.wire_count() + 1, 0);
  for (const Cell& cell : cells) {
    for (WireId wire : cell.inputs) ++uses[wire];
    for (WireId wire : cell.outputs) ++driver_start[wire + 1];
  }
  for (std::size_t w = 0; w < module.wire_count(); ++w) {
    driver_start[w + 1] += driver_start[w];
  }
  std::vector<std::size_t> drivers(driver_start.back());
  {
    std::vector<std::uint32_t> fill(driver_start.begin(), driver_start.end() - 1);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (WireId wire : cells[c].outputs) drivers[fill[wire]++] = c;
    }
  }

  // A cell dies once nothing reads any of its outputs; killing it releases
  // its input uses, which may kill their drivers in turn. A dead cycle keeps
  // every member used, so it stays, as it would under iteration to a fixed
  // point. RAM writes are effectful and never die.
  std::vector<bool> dead(cells.size(), false);
  std::vector<std::size_t> worklist;
  std::size_t removed = 0;
  auto try_kill = [&](std::size_t c) {
    const Cell& cell = cells[c];
    if (dead[c] || cell.kind == CellKind::kRamWrite) return;
    for (WireId wire : cell.outputs) {
      if (uses[wire] != 0) return;
    }
    dead[c] = true;
    ++removed;
    worklist.push_back(c);
  };
  for (std::size_t c = 0; c < cells.size(); ++c) try_kill(c);
  while (!worklist.empty()) {
    const std::size_t c = worklist.back();
    worklist.pop_back();
    for (WireId wire : cells[c].inputs) {
      if (--uses[wire] != 0) continue;
      for (std::uint32_t d = driver_start[wire]; d < driver_start[wire + 1]; ++d) {
        try_kill(drivers[d]);
      }
    }
  }
  if (removed != 0) module.erase_cells(dead);
  module.erase_unreferenced_wires();
  return removed;
}

}  // namespace hermes::hw
