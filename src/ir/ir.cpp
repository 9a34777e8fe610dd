#include "ir/ir.hpp"

#include <sstream>

#include "common/strings.hpp"

namespace hermes::ir {

std::string IrType::to_string() const {
  if (bits == 0) return "void";
  return format("%c%u", is_signed ? 'i' : 'u', bits);
}

bool is_terminator(Op op) {
  return op == Op::kBr || op == Op::kCondBr || op == Op::kRet;
}

bool has_side_effects(Op op) {
  return op == Op::kStore || is_terminator(op);
}

unsigned Instr::num_srcs() const {
  switch (op) {
    case Op::kConst: return 0;
    case Op::kCopy: case Op::kNot: case Op::kZext: case Op::kSext:
    case Op::kTrunc: case Op::kLoad: case Op::kCondBr:
      return 1;
    case Op::kSelect: return 3;
    case Op::kBr: return 0;
    case Op::kRet: return src[0] == kNoReg ? 0 : 1;
    default: return 2;  // binary ops, store
  }
}

Status Function::validate() const {
  if (blocks_.empty()) {
    return Status::Error(ErrorCode::kInternal, "function has no blocks");
  }
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    const Block& block = blocks_[b];
    if (block.instrs.empty()) {
      return Status::Error(ErrorCode::kInternal,
                           format("block %u is empty", b));
    }
    for (std::size_t i = 0; i < block.instrs.size(); ++i) {
      const Instr& instr = block.instrs[i];
      const bool last = i + 1 == block.instrs.size();
      if (is_terminator(instr.op) != last) {
        return Status::Error(
            ErrorCode::kInternal,
            format("block %u: terminator placement at instr %zu", b, i));
      }
      for (unsigned s = 0; s < instr.num_srcs(); ++s) {
        if (instr.op == Op::kRet && instr.src[0] == kNoReg) break;
        if (instr.src[s] != kNoReg && instr.src[s] >= reg_types_.size()) {
          return Status::Error(ErrorCode::kInternal,
                               format("block %u instr %zu: bad operand", b, i));
        }
      }
      if ((instr.op == Op::kLoad || instr.op == Op::kStore) &&
          instr.imm >= memories_.size()) {
        return Status::Error(ErrorCode::kInternal,
                             format("block %u instr %zu: bad memory index", b, i));
      }
      if (instr.op == Op::kBr && instr.target0 >= blocks_.size()) {
        return Status::Error(ErrorCode::kInternal, "br target out of range");
      }
      if (instr.op == Op::kCondBr &&
          (instr.target0 >= blocks_.size() || instr.target1 >= blocks_.size())) {
        return Status::Error(ErrorCode::kInternal, "condbr target out of range");
      }
    }
  }
  return Status::Ok();
}

std::size_t Function::instr_count() const {
  std::size_t count = 0;
  for (const Block& block : blocks_) count += block.instrs.size();
  return count;
}

std::size_t Function::compact_blocks() {
  std::vector<bool> reachable(blocks_.size(), false);
  std::vector<BlockId> worklist = {entry};
  reachable[entry] = true;
  while (!worklist.empty()) {
    const BlockId b = worklist.back();
    worklist.pop_back();
    const Instr& term = blocks_[b].instrs.back();
    for (BlockId target : {term.target0, term.target1}) {
      if (target != kNoBlock && target < blocks_.size() && !reachable[target]) {
        reachable[target] = true;
        worklist.push_back(target);
      }
    }
  }

  std::vector<BlockId> remap(blocks_.size(), kNoBlock);
  std::vector<Block> kept;
  kept.reserve(blocks_.size());
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    if (!reachable[b]) continue;
    remap[b] = static_cast<BlockId>(kept.size());
    kept.push_back(std::move(blocks_[b]));
  }
  const std::size_t removed = blocks_.size() - kept.size();
  blocks_ = std::move(kept);
  for (Block& block : blocks_) {
    Instr& term = block.instrs.back();
    if (term.target0 != kNoBlock) term.target0 = remap[term.target0];
    if (term.target1 != kNoBlock) term.target1 = remap[term.target1];
  }
  entry = remap[entry];
  return removed;
}

std::string Function::dump() const {
  std::ostringstream out;
  out << "function " << name_ << "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) out << ", ";
    const ParamDecl& param = params[i];
    if (param.is_array()) {
      out << memories_[param.mem].element.to_string() << ' ' << param.name
          << '[' << memories_[param.mem].depth << ']';
    } else {
      out << param.type.to_string() << " %r" << param.reg << ":" << param.name;
    }
  }
  out << ") -> " << return_type.to_string() << " {\n";
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    out << "bb" << b << ":\n";
    for (const Instr& instr : blocks_[b].instrs) {
      out << "  ";
      if (instr.dest != kNoReg) {
        out << "%r" << instr.dest << ":" << instr.type.to_string() << " = ";
      }
      out << to_string(instr.op);
      if (instr.op == Op::kConst) {
        out << ' ' << instr.imm;
      } else if (instr.op == Op::kLoad) {
        out << ' ' << memories_[instr.imm].name << "[%r" << instr.src[0] << ']';
      } else if (instr.op == Op::kStore) {
        out << ' ' << memories_[instr.imm].name << "[%r" << instr.src[0]
            << "] = %r" << instr.src[1];
      } else if (instr.op == Op::kBr) {
        out << " bb" << instr.target0;
      } else if (instr.op == Op::kCondBr) {
        out << " %r" << instr.src[0] << ", bb" << instr.target0 << ", bb"
            << instr.target1;
      } else if (instr.op == Op::kRet) {
        if (instr.src[0] != kNoReg) out << " %r" << instr.src[0];
      } else {
        for (unsigned s = 0; s < instr.num_srcs(); ++s) {
          out << (s ? ", " : " ") << "%r" << instr.src[s];
        }
      }
      out << '\n';
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace hermes::ir
