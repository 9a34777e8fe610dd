#include "ir/cdfg.hpp"

#include <map>

namespace hermes::ir {

BlockCdfg build_block_cdfg(const Function& function, BlockId block_id) {
  const Block& block = function.block(block_id);
  BlockCdfg cdfg;
  cdfg.nodes.resize(block.instrs.size());

  std::map<RegId, std::size_t> last_writer;
  std::map<RegId, std::vector<std::size_t>> readers_since_write;
  std::map<std::uint64_t, std::size_t> last_store;            // per memory
  std::map<std::uint64_t, std::vector<std::size_t>> loads_since_store;

  auto add_dep = [&](std::size_t from, std::size_t on, DepKind kind) {
    if (from == on) return;
    auto& deps = cdfg.nodes[from].deps;
    for (const Dep& existing : deps) {
      if (existing.on == on && existing.kind == kind) return;
    }
    deps.push_back({on, kind});
  };

  for (std::size_t i = 0; i < block.instrs.size(); ++i) {
    const Instr& instr = block.instrs[i];

    // RAW: depend on the in-block producer of each operand.
    for (unsigned s = 0; s < instr.num_srcs(); ++s) {
      const RegId reg = instr.src[s];
      if (reg == kNoReg) continue;
      const auto writer = last_writer.find(reg);
      if (writer != last_writer.end()) add_dep(i, writer->second, DepKind::kRaw);
      readers_since_write[reg].push_back(i);
    }

    // Memory ordering.
    if (instr.op == Op::kLoad) {
      const auto store = last_store.find(instr.imm);
      if (store != last_store.end()) add_dep(i, store->second, DepKind::kMemRaw);
      loads_since_store[instr.imm].push_back(i);
    } else if (instr.op == Op::kStore) {
      const auto store = last_store.find(instr.imm);
      if (store != last_store.end()) add_dep(i, store->second, DepKind::kMemWaw);
      for (std::size_t load : loads_since_store[instr.imm]) {
        add_dep(i, load, DepKind::kMemWar);
      }
      loads_since_store[instr.imm].clear();
      last_store[instr.imm] = i;
    }

    // WAW / WAR on the destination register.
    if (instr.dest != kNoReg) {
      const auto writer = last_writer.find(instr.dest);
      if (writer != last_writer.end()) add_dep(i, writer->second, DepKind::kWaw);
      for (std::size_t reader : readers_since_write[instr.dest]) {
        add_dep(i, reader, DepKind::kWar);
      }
      readers_since_write[instr.dest].clear();
      last_writer[instr.dest] = i;
    }

    // The terminator is ordered after every memory access: the FSM must not
    // leave the block before outstanding loads/stores complete.
    if (is_terminator(instr.op)) {
      for (std::size_t j = 0; j < i; ++j) {
        const Instr& other = block.instrs[j];
        if (other.op == Op::kStore || other.op == Op::kLoad) {
          add_dep(i, j, DepKind::kControl);
        }
      }
    }
  }
  return cdfg;
}

CdfgSummary summarize_cdfg(const Function& function) {
  CdfgSummary summary;
  summary.blocks = function.num_blocks();
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    const BlockCdfg cdfg = build_block_cdfg(function, b);
    summary.nodes += cdfg.nodes.size();
    summary.data_edges += cdfg.edge_count();
    const Instr& term = function.block(b).terminator();
    if (term.op == Op::kBr) summary.control_edges += 1;
    if (term.op == Op::kCondBr) summary.control_edges += 2;
  }
  return summary;
}

}  // namespace hermes::ir
