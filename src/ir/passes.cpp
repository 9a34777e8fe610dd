#include "ir/passes.hpp"

#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "common/bits.hpp"
#include "ir/eval.hpp"

namespace hermes::ir {
namespace {

/// Replaces an instruction with `dest = copy src` preserving type.
void rewrite_to_copy(Instr& instr, RegId src) {
  instr.op = Op::kCopy;
  instr.src[0] = src;
  instr.src[1] = kNoReg;
  instr.src[2] = kNoReg;
  instr.imm = 0;
}

void rewrite_to_const(Instr& instr, std::uint64_t value) {
  instr.op = Op::kConst;
  instr.imm = truncate(value, instr.type.bits);
  instr.src[0] = instr.src[1] = instr.src[2] = kNoReg;
}

}  // namespace

std::size_t simplify_cfg(Function& function) {
  std::size_t changed = 0;

  // 1. Thread branches through empty forwarding blocks (blocks whose only
  //    instruction is an unconditional br).
  auto forward_target = [&](BlockId id) {
    // Follow chains of single-br blocks, guarding against cycles.
    std::set<BlockId> seen;
    while (seen.insert(id).second) {
      const Block& block = function.block(id);
      if (block.instrs.size() == 1 && block.instrs[0].op == Op::kBr &&
          block.instrs[0].target0 != id) {
        id = block.instrs[0].target0;
      } else {
        break;
      }
    }
    return id;
  };
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    Instr& term = function.block(b).instrs.back();
    if (term.op == Op::kBr) {
      const BlockId target = forward_target(term.target0);
      if (target != term.target0) {
        term.target0 = target;
        ++changed;
      }
    } else if (term.op == Op::kCondBr) {
      const BlockId t0 = forward_target(term.target0);
      const BlockId t1 = forward_target(term.target1);
      if (t0 != term.target0 || t1 != term.target1) {
        term.target0 = t0;
        term.target1 = t1;
        ++changed;
      }
      if (term.target0 == term.target1) {
        term.op = Op::kBr;
        term.src[0] = kNoReg;
        ++changed;
      }
    }
  }
  const BlockId entry_fwd = forward_target(function.entry);
  if (entry_fwd != function.entry) {
    function.entry = entry_fwd;
    ++changed;
  }

  // 2. Drop unreachable blocks by rewriting them to trivial self-loops (the
  //    block table is not compacted — ids stay stable — but dead bodies are
  //    emptied so they cost nothing downstream).
  std::vector<bool> reachable(function.num_blocks(), false);
  std::vector<BlockId> worklist = {function.entry};
  reachable[function.entry] = true;
  while (!worklist.empty()) {
    const BlockId b = worklist.back();
    worklist.pop_back();
    const Instr& term = function.block(b).instrs.back();
    for (BlockId target : {term.target0, term.target1}) {
      if (target != kNoBlock && !reachable[target]) {
        reachable[target] = true;
        worklist.push_back(target);
      }
    }
  }
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    if (reachable[b]) continue;
    Block& block = function.block(b);
    if (block.instrs.size() == 1 && block.instrs[0].op == Op::kBr &&
        block.instrs[0].target0 == b) {
      continue;  // already a tombstone
    }
    changed += block.instrs.size();
    Instr self;
    self.op = Op::kBr;
    self.target0 = b;
    block.instrs.assign(1, self);
  }

  // 3. Merge a block into its unique successor when that successor has this
  //    block as its unique predecessor.
  std::vector<unsigned> pred_count(function.num_blocks(), 0);
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    if (!reachable[b]) continue;
    const Instr& term = function.block(b).instrs.back();
    if (term.op == Op::kBr) {
      ++pred_count[term.target0];
    } else if (term.op == Op::kCondBr) {
      ++pred_count[term.target0];
      ++pred_count[term.target1];
    }
  }
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    if (!reachable[b]) continue;
    while (true) {
      Block& block = function.block(b);
      const Instr term = block.instrs.back();
      if (term.op != Op::kBr) break;
      const BlockId succ = term.target0;
      if (succ == b || pred_count[succ] != 1 || succ == function.entry) break;
      // Splice successor body into this block.
      Block& next = function.block(succ);
      block.instrs.pop_back();
      for (Instr& instr : next.instrs) block.instrs.push_back(instr);
      Instr self;
      self.op = Op::kBr;
      self.target0 = succ;
      next.instrs.assign(1, self);
      pred_count[succ] = 0;
      ++changed;
    }
  }

  // 4. Physically remove everything unreachable (tombstones included) so
  //    downstream stages never see or schedule dead blocks.
  changed += function.compact_blocks();
  return changed;
}

std::size_t constant_fold(Function& function) {
  std::size_t changed = 0;
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    std::map<RegId, std::uint64_t> constants;  // reg -> known value (this block)
    for (Instr& instr : function.block(b).instrs) {
      const auto known = [&](int i) -> std::optional<std::uint64_t> {
        const auto it = constants.find(instr.src[i]);
        return it == constants.end() ? std::nullopt
                                     : std::optional(it->second);
      };
      const unsigned bits = instr.type.bits;

      // Fully-constant operands: evaluate. A select on a known condition
      // becomes a copy of the chosen arm, a condbr on one a br.
      std::uint64_t values[3] = {};
      const auto all_known = [&] {
        for (unsigned i = 0; i < instr.num_srcs(); ++i) {
          const auto it = constants.find(instr.src[i]);
          if (it == constants.end()) return false;
          values[i] = it->second;
        }
        return true;
      };
      bool folded = false;
      if (is_value_op(instr.op) && instr.op != Op::kConst &&
          instr.op != Op::kSelect && all_known()) {
        rewrite_to_const(instr, eval_instr(function, instr,
                                           [&](int i) { return values[i]; }));
        instr.type = function.reg_type(instr.dest);
        folded = true;
        ++changed;
      } else if (instr.op == Op::kSelect) {
        if (const auto cond = known(0)) {
          rewrite_to_copy(instr, *cond ? instr.src[1] : instr.src[2]);
          folded = true;
          ++changed;
        }
      } else if (instr.op == Op::kCondBr) {
        if (const auto cond = known(0)) {
          instr.op = Op::kBr;
          instr.target0 = *cond ? instr.target0 : instr.target1;
          instr.src[0] = kNoReg;
          ++changed;
        }
      }

      // Algebraic identities with one constant operand. (Values are copied
      // into plain bool/uint64 locals; older GCCs emit a spurious
      // maybe-uninitialized through std::optional here otherwise.)
      if (!folded && instr.dest != kNoReg) {
        const auto a_opt = known(0);
        const auto c_opt =
            instr.num_srcs() >= 2 ? known(1) : std::optional<std::uint64_t>();
        const bool has_a = a_opt.has_value();
        const bool has_c = c_opt.has_value();
        const std::uint64_t a_val = has_a ? *a_opt : 0;
        const std::uint64_t c_val = has_c ? *c_opt : 0;
        switch (instr.op) {
          case Op::kAdd:
            if (has_c && c_val == 0) { rewrite_to_copy(instr, instr.src[0]); ++changed; }
            else if (has_a && a_val == 0) { rewrite_to_copy(instr, instr.src[1]); ++changed; }
            break;
          case Op::kSub:
            if (has_c && c_val == 0) { rewrite_to_copy(instr, instr.src[0]); ++changed; }
            break;
          case Op::kMul:
            if ((has_c && c_val == 0) || (has_a && a_val == 0)) {
              rewrite_to_const(instr, 0);
              ++changed;
            } else if (has_c && c_val == 1) {
              rewrite_to_copy(instr, instr.src[0]);
              ++changed;
            } else if (has_a && a_val == 1) {
              rewrite_to_copy(instr, instr.src[1]);
              ++changed;
            }
            break;
          case Op::kAnd:
            if ((has_c && c_val == 0) || (has_a && a_val == 0)) { rewrite_to_const(instr, 0); ++changed; }
            else if (has_c && c_val == bit_mask(bits)) { rewrite_to_copy(instr, instr.src[0]); ++changed; }
            break;
          case Op::kOr:
          case Op::kXor:
            if (has_c && c_val == 0) { rewrite_to_copy(instr, instr.src[0]); ++changed; }
            else if (has_a && a_val == 0) { rewrite_to_copy(instr, instr.src[1]); ++changed; }
            break;
          case Op::kShl:
          case Op::kShr:
            if (has_c && c_val == 0) { rewrite_to_copy(instr, instr.src[0]); ++changed; }
            break;
          default:
            break;
        }
      }

      // Update the constant map: record kConst results, kill other writes.
      if (instr.dest != kNoReg) {
        if (instr.op == Op::kConst) {
          constants[instr.dest] = instr.imm;
        } else if (instr.op == Op::kCopy) {
          const auto it = constants.find(instr.src[0]);
          if (it != constants.end() && instr.src[0] != instr.dest) {
            constants[instr.dest] =
                truncate(it->second, function.reg_type(instr.dest).bits);
          } else {
            constants.erase(instr.dest);
          }
        } else {
          constants.erase(instr.dest);
        }
      }
    }
  }
  return changed;
}

std::size_t copy_propagate(Function& function) {
  std::size_t changed = 0;
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    // copy_of[r] = s means r currently holds the same value as s.
    std::map<RegId, RegId> copy_of;
    auto resolve = [&](RegId reg) {
      const auto it = copy_of.find(reg);
      return it == copy_of.end() ? reg : it->second;
    };
    for (Instr& instr : function.block(b).instrs) {
      for (unsigned s = 0; s < instr.num_srcs(); ++s) {
        if (instr.src[s] == kNoReg) continue;
        const RegId resolved = resolve(instr.src[s]);
        // Only propagate when the types agree bit-for-bit (copies can narrow
        // through coercion; reg types must match to substitute).
        if (resolved != instr.src[s] &&
            function.reg_type(resolved) == function.reg_type(instr.src[s])) {
          instr.src[s] = resolved;
          ++changed;
        }
      }
      if (instr.dest != kNoReg) {
        // This write invalidates any fact about dest, and any fact that
        // says some other register is a copy of dest.
        copy_of.erase(instr.dest);
        for (auto it = copy_of.begin(); it != copy_of.end();) {
          it = it->second == instr.dest ? copy_of.erase(it) : std::next(it);
        }
        if (instr.op == Op::kCopy && instr.src[0] != instr.dest &&
            function.reg_type(instr.src[0]) == function.reg_type(instr.dest)) {
          copy_of[instr.dest] = resolve(instr.src[0]);
        }
      }
    }
  }
  return changed;
}

std::size_t cse(Function& function) {
  std::size_t changed = 0;
  using Key = std::tuple<Op, unsigned, bool, RegId, RegId, RegId, std::uint64_t>;
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    std::map<Key, RegId> available;
    for (Instr& instr : function.block(b).instrs) {
      const bool pure =
          instr.dest != kNoReg && !has_side_effects(instr.op) &&
          instr.op != Op::kLoad && instr.op != Op::kConst && instr.op != Op::kCopy;
      const bool load = instr.op == Op::kLoad;
      if (pure || load) {
        Key key{instr.op, instr.type.bits, instr.type.is_signed,
                instr.src[0], instr.src[1], instr.src[2], instr.imm};
        const auto it = available.find(key);
        if (it != available.end() &&
            function.reg_type(it->second) == function.reg_type(instr.dest)) {
          rewrite_to_copy(instr, it->second);
          ++changed;
        } else {
          available[key] = instr.dest;
        }
      }
      if (instr.op == Op::kStore) {
        // Kill loads from the stored memory.
        for (auto it = available.begin(); it != available.end();) {
          const bool is_load = std::get<0>(it->first) == Op::kLoad;
          const bool same_mem = std::get<6>(it->first) == instr.imm;
          it = (is_load && same_mem) ? available.erase(it) : std::next(it);
        }
      }
      if (instr.dest != kNoReg) {
        // Kill expressions using or producing the overwritten register.
        for (auto it = available.begin(); it != available.end();) {
          const auto& [op, bits, sgn, s0, s1, s2, imm] = it->first;
          const bool uses = s0 == instr.dest || s1 == instr.dest || s2 == instr.dest;
          const bool produces = it->second == instr.dest;
          it = (uses || produces) ? available.erase(it) : std::next(it);
        }
        // Re-insert the instruction's own fact if still valid (operands not
        // clobbered by itself).
        const bool self_clobber = instr.src[0] == instr.dest ||
                                  instr.src[1] == instr.dest ||
                                  instr.src[2] == instr.dest;
        if ((pure || load) && instr.op != Op::kCopy && !self_clobber) {
          Key key{instr.op, instr.type.bits, instr.type.is_signed,
                  instr.src[0], instr.src[1], instr.src[2], instr.imm};
          available[key] = instr.dest;
        }
      }
    }
  }
  return changed;
}

std::size_t strength_reduce(Function& function) {
  std::size_t changed = 0;
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    std::map<RegId, std::uint64_t> constants;
    auto& instrs = function.block(b).instrs;
    std::vector<Instr> rewritten;
    rewritten.reserve(instrs.size());
    for (Instr instr : instrs) {
      const auto const_src1 = [&]() -> std::optional<std::uint64_t> {
        if (instr.num_srcs() < 2) return std::nullopt;
        const auto it = constants.find(instr.src[1]);
        return it == constants.end() ? std::nullopt : std::optional(it->second);
      }();
      if (const_src1 && *const_src1 != 0 &&
          (*const_src1 & (*const_src1 - 1)) == 0) {
        const unsigned log2 = bit_width_of(*const_src1) - 1;
        if (instr.op == Op::kMul) {
          // x * 2^k  ->  x << k
          const RegId shamt = function.new_reg({instr.type.bits, false});
          Instr c;
          c.op = Op::kConst;
          c.type = {instr.type.bits, false};
          c.dest = shamt;
          c.imm = log2;
          rewritten.push_back(c);
          instr.op = Op::kShl;
          instr.src[1] = shamt;
          ++changed;
        } else if (instr.op == Op::kDiv && !instr.type.is_signed) {
          const RegId shamt = function.new_reg({instr.type.bits, false});
          Instr c;
          c.op = Op::kConst;
          c.type = {instr.type.bits, false};
          c.dest = shamt;
          c.imm = log2;
          rewritten.push_back(c);
          instr.op = Op::kShr;
          instr.src[1] = shamt;
          ++changed;
        } else if (instr.op == Op::kRem && !instr.type.is_signed) {
          const RegId mask = function.new_reg(instr.type);
          Instr c;
          c.op = Op::kConst;
          c.type = instr.type;
          c.dest = mask;
          c.imm = *const_src1 - 1;
          rewritten.push_back(c);
          instr.op = Op::kAnd;
          instr.src[1] = mask;
          ++changed;
        }
      }
      if (instr.dest != kNoReg) {
        if (instr.op == Op::kConst) {
          constants[instr.dest] = instr.imm;
        } else {
          constants.erase(instr.dest);
        }
      }
      rewritten.push_back(std::move(instr));
    }
    instrs = std::move(rewritten);
  }
  return changed;
}

std::size_t dce(Function& function) {
  std::size_t removed = 0;
  while (true) {
    std::vector<bool> read(function.num_regs(), false);
    for (const ParamDecl& param : function.params) {
      if (!param.is_array()) read[param.reg] = false;  // params start unread
    }
    for (BlockId b = 0; b < function.num_blocks(); ++b) {
      for (const Instr& instr : function.block(b).instrs) {
        for (unsigned s = 0; s < instr.num_srcs(); ++s) {
          if (instr.src[s] != kNoReg) read[instr.src[s]] = true;
        }
      }
    }
    std::size_t round = 0;
    for (BlockId b = 0; b < function.num_blocks(); ++b) {
      auto& instrs = function.block(b).instrs;
      std::vector<Instr> kept;
      kept.reserve(instrs.size());
      for (Instr& instr : instrs) {
        const bool removable = instr.dest != kNoReg &&
                               !has_side_effects(instr.op) &&
                               !read[instr.dest];
        if (removable) {
          ++round;
        } else {
          kept.push_back(std::move(instr));
        }
      }
      instrs = std::move(kept);
    }
    removed += round;
    if (round == 0) break;
  }
  return removed;
}

std::size_t mark_roms(Function& function) {
  std::vector<bool> stored(function.memories().size(), false);
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    for (const Instr& instr : function.block(b).instrs) {
      if (instr.op == Op::kStore) stored[instr.imm] = true;
    }
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < function.memories().size(); ++i) {
    MemDecl& mem = function.memories()[i];
    if (!mem.is_interface && !mem.is_rom && !stored[i]) {
      mem.is_rom = true;
      ++changed;
    }
  }
  return changed;
}

std::size_t if_convert(Function& function, unsigned max_instrs) {
  // Predecessor counts over reachable blocks.
  std::vector<unsigned> preds(function.num_blocks(), 0);
  for (BlockId b = 0; b < function.num_blocks(); ++b) {
    const Instr& term = function.block(b).terminator();
    if (term.op == Op::kBr) {
      ++preds[term.target0];
    } else if (term.op == Op::kCondBr) {
      ++preds[term.target0];
      ++preds[term.target1];
    }
  }

  // A branch arm is convertible when it is a straight-line block with a
  // single predecessor, only pure value-producing instructions, and an
  // unconditional branch out.
  auto arm_ok = [&](BlockId arm, BlockId from) {
    if (preds[arm] != 1) return false;
    const Block& block = function.block(arm);
    if (block.instrs.size() > max_instrs + 1) return false;
    if (block.terminator().op != Op::kBr) return false;
    if (block.terminator().target0 == arm || arm == from) return false;
    for (std::size_t i = 0; i + 1 < block.instrs.size(); ++i) {
      const Instr& instr = block.instrs[i];
      if (has_side_effects(instr.op) || instr.dest == kNoReg) return false;
    }
    return true;
  };

  std::size_t converted = 0;
  for (BlockId a = 0; a < function.num_blocks(); ++a) {
    Instr term = function.block(a).terminator();
    if (term.op != Op::kCondBr) continue;
    const RegId cond = term.src[0];
    const BlockId t = term.target0;
    const BlockId f = term.target1;
    if (t == f) continue;

    // Recognize a diamond (A->T->J, A->F->J) or triangles (A->T->J, A->J).
    BlockId join = kNoBlock;
    bool convert_t = false, convert_f = false;
    if (arm_ok(t, a) && arm_ok(f, a) &&
        function.block(t).terminator().target0 ==
            function.block(f).terminator().target0) {
      join = function.block(t).terminator().target0;
      convert_t = convert_f = true;
    } else if (arm_ok(t, a) && function.block(t).terminator().target0 == f) {
      join = f;
      convert_t = true;
    } else if (arm_ok(f, a) && function.block(f).terminator().target0 == t) {
      join = t;
      convert_f = true;
    } else {
      continue;
    }
    if (join == a) continue;

    // Copy the condition: a converted arm may overwrite the condition
    // register, and the merge selects must all read the original value.
    Block& head = function.block(a);
    head.instrs.pop_back();  // drop the condbr; re-terminated below
    const RegId cond_copy = function.new_reg(function.reg_type(cond));
    {
      Instr copy;
      copy.op = Op::kCopy;
      copy.type = function.reg_type(cond);
      copy.dest = cond_copy;
      copy.src[0] = cond;
      function.block(a).instrs.push_back(copy);
    }

    // Speculate one arm into A, renaming destinations to fresh registers.
    auto speculate = [&](BlockId arm) {
      std::map<RegId, RegId> renamed;
      const Block& block = function.block(arm);
      for (std::size_t i = 0; i + 1 < block.instrs.size(); ++i) {
        Instr instr = block.instrs[i];
        for (unsigned s = 0; s < instr.num_srcs(); ++s) {
          const auto it = renamed.find(instr.src[s]);
          if (it != renamed.end()) instr.src[s] = it->second;
        }
        const RegId fresh = function.new_reg(function.reg_type(instr.dest));
        renamed[instr.dest] = fresh;
        instr.dest = fresh;
        function.block(a).instrs.push_back(instr);
      }
      return renamed;
    };
    std::map<RegId, RegId> renamed_t, renamed_f;
    if (convert_t) renamed_t = speculate(t);
    if (convert_f) renamed_f = speculate(f);

    // Merge every written register with a select on the condition.
    std::map<RegId, bool> written;
    for (const auto& [reg, tmp] : renamed_t) written[reg] = true;
    for (const auto& [reg, tmp] : renamed_f) written[reg] = true;
    for (const auto& [reg, unused] : written) {
      const auto in_t = renamed_t.find(reg);
      const auto in_f = renamed_f.find(reg);
      Instr select;
      select.op = Op::kSelect;
      select.type = function.reg_type(reg);
      select.dest = reg;
      select.src[0] = cond_copy;
      select.src[1] = in_t != renamed_t.end() ? in_t->second : reg;
      select.src[2] = in_f != renamed_f.end() ? in_f->second : reg;
      function.block(a).instrs.push_back(select);
    }

    Instr br;
    br.op = Op::kBr;
    br.target0 = join;
    function.block(a).instrs.push_back(br);
    // The arm blocks become unreachable; simplify_cfg tombstones them.
    ++converted;
    // Predecessor bookkeeping is now stale for this round; rebuilding is
    // cheap but converting one diamond per block per pass round is enough.
  }
  return converted;
}

std::vector<PassReport> run_pipeline(Function& function) {
  std::vector<PassReport> reports;
  auto record = [&](const char* name, std::size_t changed) {
    reports.push_back({name, changed, function.instr_count()});
  };
  for (int round = 0; round < 4; ++round) {
    std::size_t total = 0;
    std::size_t n;
    n = simplify_cfg(function); total += n; record("simplify_cfg", n);
    n = if_convert(function); total += n; record("if_convert", n);
    n = constant_fold(function); total += n; record("constant_fold", n);
    n = copy_propagate(function); total += n; record("copy_propagate", n);
    n = cse(function); total += n; record("cse", n);
    n = strength_reduce(function); total += n; record("strength_reduce", n);
    n = dce(function); total += n; record("dce", n);
    if (total == 0) break;
  }
  mark_roms(function);
  return reports;
}

}  // namespace hermes::ir
