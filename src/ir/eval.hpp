// What each value-producing IR instruction computes, written once.
//
// The golden interpreter evaluates instructions on register contents and
// constant folding evaluates them on known constants; both call
// eval_instr, so an optimized function cannot compute anything the
// interpreter would not. Division, remainder and shifts use the guarded
// operators of common/bits.hpp, which the netlist evaluator (hw/sim_eval.hpp)
// shares, so the hardware generated from an instruction agrees with it too.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "ir/ir.hpp"

namespace hermes::ir {

/// True for the ops eval_instr computes: every op from kConst to kTrunc,
/// i.e. all but memory accesses and terminators.
constexpr bool is_value_op(Op op) { return op <= Op::kTrunc; }

/// The value `instr` (an is_value_op instruction) writes to its destination,
/// truncated to the destination register's width. `src(i)` must return the
/// value of source operand `i`, already truncated to its register's width;
/// it is only called for the operands the op reads.
template <typename Src>
std::uint64_t eval_instr(const Function& function, const Instr& instr,
                         Src&& src) {
  const unsigned bits = instr.type.bits;
  const bool is_signed = instr.type.is_signed;
  const auto s_src = [&](int i) { return sign_extend(src(i), bits); };
  std::uint64_t value = 0;
  switch (instr.op) {
    case Op::kConst: value = instr.imm; break;
    case Op::kCopy:
    case Op::kZext:
    case Op::kTrunc: value = src(0); break;
    case Op::kAdd: value = src(0) + src(1); break;
    case Op::kSub: value = src(0) - src(1); break;
    case Op::kMul: value = src(0) * src(1); break;
    case Op::kDiv:
      value = is_signed ? div_s(s_src(0), s_src(1)) : div_u(src(0), src(1));
      break;
    case Op::kRem:
      value = is_signed ? rem_s(s_src(0), s_src(1)) : rem_u(src(0), src(1));
      break;
    case Op::kAnd: value = src(0) & src(1); break;
    case Op::kOr: value = src(0) | src(1); break;
    case Op::kXor: value = src(0) ^ src(1); break;
    case Op::kNot: value = ~src(0); break;
    case Op::kShl: value = shl(src(0), src(1)); break;
    case Op::kShr:
      value = is_signed ? shr_s(s_src(0), src(1)) : shr_u(src(0), src(1));
      break;
    case Op::kEq: value = src(0) == src(1); break;
    case Op::kNe: value = src(0) != src(1); break;
    case Op::kLt:
      value = is_signed ? s_src(0) < s_src(1) : src(0) < src(1);
      break;
    case Op::kLe:
      value = is_signed ? s_src(0) <= s_src(1) : src(0) <= src(1);
      break;
    case Op::kSelect: value = src(0) ? src(1) : src(2); break;
    case Op::kSext:
      value = static_cast<std::uint64_t>(
          sign_extend(src(0), function.reg_type(instr.src[0]).bits));
      break;
    default: break;  // memory accesses and terminators are not values
  }
  // Comparison results are 1-bit regardless of the comparison width.
  return truncate(value, function.reg_type(instr.dest).bits);
}

}  // namespace hermes::ir
