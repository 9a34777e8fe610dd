#include "hw/sim.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/bits.hpp"
#include "common/strings.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/kernel.hpp"
#include "hw/sim_eval.hpp"

namespace hermes::hw {

Simulator::Simulator(const Module& module, SimOptions options)
    : module_(module), options_(options) {
  status_ = module.validate();
  if (!status_.ok()) return;

  values_.assign(module.wire_count(), 0);
  build_tables();
  if (!status_.ok()) return;

  active_backend_ = options_.backend;
  if (options_.backend == SimBackend::kJit) {
    // Content-addressed process-wide cache: identical netlists share one
    // compiled kernel. A null kernel (non-x86-64, W^X denied,
    // HERMES_DISABLE_JIT) degrades silently to the interpreter.
    jit_kernel_ = jit::KernelCache::global().get_or_compile(
        module_.digest(), op_table_view());
    if (jit_kernel_ == nullptr) active_backend_ = SimBackend::kEvent;
  }
  reset();
}

OpTableView Simulator::op_table_view() const {
  OpTableView view;
  view.ops = comb_ops_.data();
  view.op_count = comb_ops_.size();
  view.inputs = op_inputs_.data();
  view.input_widths = op_input_widths_.data();
  view.level_start = level_start_.data();
  view.level_count = level_count();
  view.wire_count = module_.wire_count();
  view.seq_outputs = seq_output_wires_.data();
  view.seq_output_count = seq_output_wires_.size();
  return view;
}

void Simulator::build_tables() {
  const auto& cells = module_.cells();
  const std::size_t wire_count = module_.wire_count();
  constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

  std::vector<std::size_t> driver_of(wire_count, kNoCell);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (WireId wire : cells[i].outputs) driver_of[wire] = i;
  }

  // Topological sort of combinational cells, computing levels on the way.
  // A comb cell is ready once all of its inputs are either sequential
  // outputs, port inputs, const outputs, or outputs of already-scheduled
  // comb cells; its level is 1 + max level over its comb drivers.
  std::vector<unsigned> pending(cells.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(cells.size());
  std::vector<std::uint32_t> cell_level(cells.size(), 0);
  std::queue<std::size_t> ready;
  std::size_t comb_count = 0;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (is_sequential(cell.kind)) {
      switch (cell.kind) {
        case CellKind::kRegister:
          reg_ops_.push_back({cell.inputs[0], cell.inputs[1], cell.outputs[0],
                              module_.wire_width(cell.outputs[0]), cell.param});
          seq_output_wires_.push_back(cell.outputs[0]);
          break;
        case CellKind::kRamRead:
          ram_read_ops_.push_back({cell.inputs[0], cell.inputs[1],
                                   cell.outputs[0],
                                   static_cast<std::uint32_t>(cell.param)});
          seq_output_wires_.push_back(cell.outputs[0]);
          break;
        case CellKind::kRamWrite:
          ram_write_ops_.push_back(
              {cell.inputs[0], cell.inputs[1], cell.inputs[2],
               static_cast<std::uint32_t>(cell.param),
               module_.memories()[cell.param].width});
          break;
        default:
          break;
      }
      continue;
    }
    ++comb_count;
    unsigned deps = 0;
    for (WireId wire : cell.inputs) {
      const std::size_t driver = driver_of[wire];
      if (driver == kNoCell) continue;  // port input / undriven
      if (is_sequential(cells[driver].kind)) continue;
      ++deps;
      dependents[driver].push_back(i);
    }
    pending[i] = deps;
    if (deps == 0) ready.push(i);
  }

  std::vector<std::size_t> comb_topo;
  comb_topo.reserve(comb_count);
  while (!ready.empty()) {
    const std::size_t index = ready.front();
    ready.pop();
    comb_topo.push_back(index);
    for (std::size_t dep : dependents[index]) {
      cell_level[dep] = std::max(cell_level[dep], cell_level[index] + 1);
      if (--pending[dep] == 0) ready.push(dep);
    }
  }
  if (comb_topo.size() != comb_count) {
    status_ = Status::Error(ErrorCode::kInternal,
                            format("combinational loop in module %s",
                                   module_.name().c_str()));
    return;
  }

  // Group ops of a level contiguously. A cell's inputs come from strictly
  // lower levels, so a stable sort by level is still a topological order —
  // and it lets the level CSR double as op index ranges, which both the
  // dense fast path and the JIT's per-level straight-line code rely on.
  std::stable_sort(comb_topo.begin(), comb_topo.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cell_level[a] < cell_level[b];
                   });

  // Flatten into the SoA op table, in level-sorted topological order.
  comb_ops_.reserve(comb_count);
  std::uint32_t max_level = 0;
  for (std::size_t cell_index : comb_topo) {
    const Cell& cell = cells[cell_index];
    CombOp op;
    op.kind = cell.kind;
    op.level = cell_level[cell_index];
    op.first_input = static_cast<std::uint32_t>(op_inputs_.size());
    op.input_count = static_cast<std::uint16_t>(cell.inputs.size());
    for (WireId wire : cell.inputs) {
      op_inputs_.push_back(wire);
      op_input_widths_.push_back(
          static_cast<std::uint8_t>(module_.wire_width(wire)));
    }
    op.out = cell.outputs[0];
    op.out_width = static_cast<std::uint8_t>(module_.wire_width(op.out));
    op.out_mask = bit_mask(op.out_width);
    op.param = cell.param;
    comb_ops_.push_back(op);
    max_level = std::max(max_level, op.level);
  }
  // CSR scratch arena for the per-level worklists: level l owns exactly as
  // many slots as it has ops (the worst case a delta can schedule). With the
  // level-sorted table the same offsets delimit the level's op indices.
  const std::size_t levels = comb_ops_.empty() ? 0 : max_level + 1;
  std::vector<std::uint32_t> level_counts(levels, 0);
  for (const CombOp& op : comb_ops_) ++level_counts[op.level];
  level_start_.assign(levels + 1, 0);
  for (std::size_t l = 0; l < levels; ++l) {
    level_start_[l + 1] = level_start_[l] + level_counts[l];
  }
  level_fill_.assign(levels, 0);
  level_arena_.assign(comb_ops_.size(), 0);
  op_scheduled_.assign(comb_ops_.size(), 0);

  comb_driver_.assign(wire_count, kNoCombOp);
  for (std::size_t i = 0; i < comb_ops_.size(); ++i) {
    comb_driver_[comb_ops_[i].out] = static_cast<std::uint32_t>(i);
  }

  // Per-wire fanout lists (CSR), deduplicated per op so a cell consuming the
  // same wire twice appears once.
  const auto for_each_unique_input = [&](const CombOp& op, auto&& fn) {
    const WireId* in = op_inputs_.data() + op.first_input;
    for (std::uint16_t i = 0; i < op.input_count; ++i) {
      bool seen = false;
      for (std::uint16_t j = 0; j < i; ++j) {
        if (in[j] == in[i]) { seen = true; break; }
      }
      if (!seen) fn(in[i]);
    }
  };
  std::vector<std::uint32_t> counts(wire_count, 0);
  for (const CombOp& op : comb_ops_) {
    for_each_unique_input(op, [&](WireId wire) { ++counts[wire]; });
  }
  fanout_offsets_.assign(wire_count + 1, 0);
  for (std::size_t w = 0; w < wire_count; ++w) {
    fanout_offsets_[w + 1] = fanout_offsets_[w] + counts[w];
  }
  fanout_ops_.resize(fanout_offsets_[wire_count]);
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (std::size_t i = 0; i < comb_ops_.size(); ++i) {
    for_each_unique_input(comb_ops_[i], [&](WireId wire) {
      fanout_ops_[cursor[wire]++] = static_cast<std::uint32_t>(i);
    });
  }

  // Lowest consumer level per wire — the JIT backend's dirty-level tracker.
  wire_min_level_.assign(wire_count,
                         static_cast<std::uint32_t>(levels));
  for (const CombOp& op : comb_ops_) {
    for_each_unique_input(op, [&](WireId wire) {
      wire_min_level_[wire] = std::min(wire_min_level_[wire], op.level);
    });
  }
}

void Simulator::reset() {
  cycles_ = 0;
  std::fill(values_.begin(), values_.end(), 0);
  for (const RegOp& op : reg_ops_) {
    values_[op.q] = truncate(op.reset_value, op.q_width);
  }
  mem_state_.clear();
  for (const Memory& memory : module_.memories()) {
    std::vector<std::uint64_t> contents(memory.depth, 0);
    for (std::size_t i = 0; i < memory.init.size() && i < memory.depth; ++i) {
      contents[i] = truncate(memory.init[i], memory.width);
    }
    mem_state_.push_back(std::move(contents));
  }
  // Full settle from scratch; every engine starts from a fully clean state.
  std::fill(level_fill_.begin(), level_fill_.end(), 0);
  std::fill(op_scheduled_.begin(), op_scheduled_.end(), 0);
  if (active_backend_ == SimBackend::kJit) {
    jit_kernel_->run_all(values_.data());
  } else {
    for (const CombOp& op : comb_ops_) values_[op.out] = eval_op(op);
  }
  jit_dirty_level_ = static_cast<std::uint32_t>(level_count());
  jit_dirty_seq_only_ = true;
  comb_dirty_ = false;
}

void Simulator::schedule_op(std::uint32_t op_index) {
  if (op_scheduled_[op_index]) return;
  op_scheduled_[op_index] = 1;
  const std::uint32_t level = comb_ops_[op_index].level;
  level_arena_[level_start_[level] + level_fill_[level]++] = op_index;
}

void Simulator::schedule_fanout(WireId wire) {
  const std::uint32_t begin = fanout_offsets_[wire];
  const std::uint32_t end = fanout_offsets_[wire + 1];
  for (std::uint32_t i = begin; i < end; ++i) schedule_op(fanout_ops_[i]);
}

void Simulator::mark_wire_changed(WireId wire, bool sequential) {
  comb_dirty_ = true;
  switch (active_backend_) {
    case SimBackend::kSweep:
      break;
    case SimBackend::kJit:
      jit_dirty_level_ = std::min(jit_dirty_level_, wire_min_level_[wire]);
      if (!sequential) jit_dirty_seq_only_ = false;
      break;
    case SimBackend::kEvent:
      schedule_fanout(wire);
      break;
  }
}

void Simulator::set_input(std::string_view port_name, std::uint64_t value) {
  const WireId wire = module_.port_wire(port_name);
  assert(wire != kNoWire && "unknown input port");
  set_input(wire, value);
}

void Simulator::set_input(WireId wire, std::uint64_t value) {
  const std::uint64_t truncated = truncate(value, module_.wire_width(wire));
  if (values_[wire] == truncated) return;
  values_[wire] = truncated;
  mark_wire_changed(wire);
}

std::uint64_t Simulator::get_output(std::string_view port_name) const {
  return get(module_.port_wire(port_name));
}

std::uint64_t Simulator::eval_op(const CombOp& op) const {
  const WireId* inputs = op_inputs_.data() + op.first_input;
  const std::uint8_t* widths = op_input_widths_.data() + op.first_input;
  return eval_comb_cell(
      op.kind, op.param, op.out_mask,
      [&](std::size_t index) { return values_[inputs[index]]; }, widths,
      op.input_count);
}

void Simulator::eval_comb() {
  if (!comb_dirty_) return;
  comb_dirty_ = false;

  if (active_backend_ == SimBackend::kSweep) {
    for (const CombOp& op : comb_ops_) values_[op.out] = eval_op(op);
    return;
  }

  if (active_backend_ == SimBackend::kJit) {
    // When every change since the last settle came from the clock edge
    // (register commits / RAM samples), only their transitive fanout can be
    // stale — run the compiled sequential-cone function. Otherwise fall back
    // to straight-line code for every level at or above the lowest level a
    // changed wire feeds. Re-evaluating an op whose inputs are unchanged
    // recomputes the same value, so both granularities are bit-identical to
    // the event-driven drain.
    const bool seq_only = jit_dirty_seq_only_;
    jit_dirty_seq_only_ = true;
    const std::uint32_t from = jit_dirty_level_;
    jit_dirty_level_ = static_cast<std::uint32_t>(level_count());
    if (seq_only) {
      jit_kernel_->run_seq(values_.data());
    } else {
      jit_kernel_->run_from_level(from, values_.data());
    }
    return;
  }

  // Drain levels in ascending order. A re-evaluated op only ever schedules
  // ops at strictly higher levels (its fanout), so each level's arena span is
  // complete by the time it is reached and every op runs at most once per
  // delta. Re-reading level_fill_ each iteration keeps same-level growth
  // (impossible by construction, but cheap) safe.
  for (std::size_t level = 0; level < level_fill_.size(); ++level) {
    const std::uint32_t base = level_start_[level];
    const std::uint32_t count = level_start_[level + 1] - base;
    if (level_fill_[level] == count) {
      // Dense fast path: every op in the level is scheduled, so the arena
      // holds a permutation of the level's own (contiguous) index range.
      // Sweep the range directly — sequential op-table traversal, wholesale
      // flag reset, no per-slot worklist bookkeeping.
      std::fill_n(op_scheduled_.begin() + base, count, std::uint8_t{0});
      for (std::uint32_t index = base; index < base + count; ++index) {
        const CombOp& op = comb_ops_[index];
        const std::uint64_t value = eval_op(op);
        if (value == values_[op.out]) continue;
        values_[op.out] = value;
        schedule_fanout(op.out);
      }
    } else {
      for (std::uint32_t i = 0; i < level_fill_[level]; ++i) {
        const std::uint32_t index = level_arena_[base + i];
        op_scheduled_[index] = 0;
        const CombOp& op = comb_ops_[index];
        const std::uint64_t value = eval_op(op);
        if (value == values_[op.out]) continue;
        values_[op.out] = value;
        schedule_fanout(op.out);
      }
    }
    level_fill_[level] = 0;
  }
}

void Simulator::commit_wire(WireId wire, unsigned width, std::uint64_t value) {
  const std::uint64_t truncated = truncate(value, width);
  if (values_[wire] == truncated) return;
  values_[wire] = truncated;
  mark_wire_changed(wire, /*sequential=*/true);
}

void Simulator::step() {
  eval_comb();

  // Sample all sequential inputs at the edge, then commit. Writes are
  // committed before reads sample, modelling write-first RAM ports (a read
  // and write to the same address in the same cycle returns the new data,
  // matching the behavioral templates used for NG-ULTRA TDP RAM inference).
  reg_scratch_.clear();
  ram_write_scratch_.clear();
  ram_sample_scratch_.clear();

  for (const RegOp& op : reg_ops_) {
    if (values_[op.en] != 0) {
      reg_scratch_.push_back({op.q, op.q_width, values_[op.d]});
    }
  }
  for (const RamWriteOp& op : ram_write_ops_) {
    if (values_[op.en] != 0) {
      ram_write_scratch_.push_back(
          {op.mem, op.width, values_[op.addr], values_[op.data]});
    }
  }
  for (const RamReadOp& op : ram_read_ops_) {
    ram_sample_scratch_.push_back(
        {op.data, op.mem, values_[op.addr], values_[op.en] != 0});
  }

  for (const RegUpdate& update : reg_scratch_) {
    commit_wire(update.q, update.width, update.value);
  }
  for (const RamUpdate& update : ram_write_scratch_) {
    auto& contents = mem_state_[update.mem];
    if (update.addr < contents.size()) {
      contents[update.addr] = truncate(update.value, update.width);
    }
  }
  for (const RamSample& sample : ram_sample_scratch_) {
    if (!sample.enabled) continue;
    const auto& contents = mem_state_[sample.mem];
    commit_wire(sample.data, 64,
                sample.addr < contents.size() ? contents[sample.addr] : 0);
  }

  ++cycles_;
  eval_comb();
}

Result<std::uint64_t> Simulator::run_until(std::string_view port_name,
                                           std::uint64_t max_cycles) {
  const WireId wire = module_.port_wire(port_name);
  if (wire == kNoWire) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         format("no port named %.*s",
                                static_cast<int>(port_name.size()),
                                port_name.data()));
  }
  const std::uint64_t start = cycles_;
  eval_comb();  // lazy: settles only if an input changed since the last settle
  while (get(wire) == 0) {
    if (cycles_ - start >= max_cycles) {
      return Status::Error(
          ErrorCode::kDeadlineExceeded,
          format("signal %.*s not asserted within %llu cycles",
                 static_cast<int>(port_name.size()), port_name.data(),
                 static_cast<unsigned long long>(max_cycles)));
    }
    step();
  }
  return cycles_ - start;
}

void Simulator::corrupt_wire(WireId wire, unsigned bit) {
  if (wire >= values_.size()) return;
  const unsigned width = module_.wire_width(wire);
  if (bit >= width) return;
  values_[wire] ^= 1ULL << bit;
  comb_dirty_ = true;
  if (active_backend_ == SimBackend::kEvent) {
    // If a comb cell drives this wire the next settle recomputes it (erasing
    // the flip, as the full sweep does); the driver sits at a lower level
    // than the fanout, so dependents observe the recomputed value.
    if (comb_driver_[wire] != kNoCombOp) schedule_op(comb_driver_[wire]);
    schedule_fanout(wire);
  } else if (active_backend_ == SimBackend::kJit) {
    std::uint32_t level = wire_min_level_[wire];
    if (comb_driver_[wire] != kNoCombOp) {
      level = std::min(level, comb_ops_[comb_driver_[wire]].level);
    }
    jit_dirty_level_ = std::min(jit_dirty_level_, level);
    // A flipped wire may sit outside the sequential cone (a comb-driven wire
    // awaiting recomputation): force the general level resume.
    jit_dirty_seq_only_ = false;
  }
}

std::vector<WireId> Simulator::register_outputs() const {
  std::vector<WireId> outputs;
  outputs.reserve(reg_ops_.size());
  for (const RegOp& op : reg_ops_) outputs.push_back(op.q);
  return outputs;
}

std::uint64_t Simulator::read_memory(std::size_t mem, std::size_t addr) const {
  const auto& contents = mem_state_.at(mem);
  return addr < contents.size() ? contents[addr] : 0;
}

void Simulator::write_memory(std::size_t mem, std::size_t addr,
                             std::uint64_t value) {
  auto& contents = mem_state_.at(mem);
  if (addr < contents.size()) {
    contents[addr] = truncate(value, module_.memories()[mem].width);
  }
}

}  // namespace hermes::hw
