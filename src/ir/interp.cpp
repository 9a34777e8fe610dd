#include "ir/interp.hpp"

#include "common/bits.hpp"
#include "common/strings.hpp"
#include "ir/eval.hpp"

namespace hermes::ir {

Interpreter::Interpreter(const Function& function) : function_(function) {
  memories_.resize(function.memories().size());
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    const MemDecl& decl = function.memories()[i];
    memories_[i].assign(decl.depth, 0);
    for (std::size_t j = 0; j < decl.init.size() && j < decl.depth; ++j) {
      memories_[i][j] = truncate(decl.init[j], decl.element.bits);
    }
  }
}

void Interpreter::set_memory(std::size_t mem, std::vector<std::uint64_t> contents) {
  const MemDecl& decl = function_.memories().at(mem);
  contents.resize(decl.depth, 0);
  for (auto& word : contents) word = truncate(word, decl.element.bits);
  memories_.at(mem) = std::move(contents);
}

Result<ExecStats> Interpreter::run(std::span<const std::uint64_t> scalar_args,
                                   std::uint64_t max_steps) {
  if (trace_) trace_->clear();
  // Re-seed local / ROM memories so repeated runs are independent.
  for (std::size_t i = 0; i < memories_.size(); ++i) {
    const MemDecl& decl = function_.memories()[i];
    if (decl.is_interface) continue;
    memories_[i].assign(decl.depth, 0);
    for (std::size_t j = 0; j < decl.init.size() && j < decl.depth; ++j) {
      memories_[i][j] = truncate(decl.init[j], decl.element.bits);
    }
  }

  std::vector<std::uint64_t> regs(function_.num_regs(), 0);
  std::size_t arg_index = 0;
  for (const ParamDecl& param : function_.params) {
    if (param.is_array()) continue;
    if (arg_index >= scalar_args.size()) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "not enough scalar arguments");
    }
    regs[param.reg] = truncate(scalar_args[arg_index++], param.type.bits);
  }

  ExecStats stats;
  BlockId block = function_.entry;
  std::size_t pc = 0;

  while (stats.instructions < max_steps) {
    const Instr& instr = function_.block(block).instrs[pc];
    ++stats.instructions;
    const auto src = [&](int i) { return regs[instr.src[i]]; };

    switch (instr.op) {
      case Op::kLoad: {
        ++stats.mem_reads;
        const auto& mem = memories_[instr.imm];
        const std::uint64_t addr = src(0);
        if (trace_) trace_->push_back({instr.imm, addr, false});
        if (instr.dest != kNoReg) {
          regs[instr.dest] = truncate(addr < mem.size() ? mem[addr] : 0,
                                      function_.reg_type(instr.dest).bits);
        }
        break;
      }
      case Op::kStore: {
        ++stats.mem_writes;
        auto& mem = memories_[instr.imm];
        const std::uint64_t addr = src(0);
        if (trace_) {
          trace_->push_back(
              {instr.imm, addr, true,
               truncate(src(1), function_.memories()[instr.imm].element.bits)});
        }
        if (addr < mem.size()) {
          mem[addr] = truncate(src(1), function_.memories()[instr.imm].element.bits);
        }
        break;
      }
      case Op::kBr:
        block = instr.target0;
        pc = 0;
        continue;
      case Op::kCondBr:
        block = src(0) ? instr.target0 : instr.target1;
        pc = 0;
        continue;
      case Op::kRet:
        if (instr.src[0] != kNoReg) {
          stats.return_value = regs[instr.src[0]];
          stats.returned_value = true;
        }
        return stats;
      default:  // kConst … kTrunc
        stats.multiplies += instr.op == Op::kMul;
        stats.divides += instr.op == Op::kDiv || instr.op == Op::kRem;
        if (instr.dest != kNoReg) {
          regs[instr.dest] = eval_instr(function_, instr, src);
        }
        break;
    }
    ++pc;
  }
  return Status::Error(ErrorCode::kDeadlineExceeded,
                       format("interpreter exceeded %llu steps",
                              static_cast<unsigned long long>(max_steps)));
}

}  // namespace hermes::ir
