// Word-level combinational cell semantics, shared by every engine.
//
// The scalar event-driven / full-sweep engines (hw::Simulator) and the
// per-lane fallback path of the bit-sliced engine (hw::SlicedSimulator) must
// agree bit-for-bit on what each CellKind computes — divergence here would
// silently break the serial-oracle invariant of the fault campaigns. The
// single switch lives in this header as a template over the input accessor,
// so each engine reads its own value storage with zero call overhead.
// Division, remainder and shifts call the guarded operators of
// common/bits.hpp, which the IR interpreter and constant folder share, so a
// netlist computes what the IR it was generated from computes.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "hw/netlist.hpp"

namespace hermes::hw {

/// Evaluates one combinational cell. `in(i)` must return the value of input
/// wire `i`, already truncated to its width; `widths[i]` is that width. The
/// result is truncated to `out_mask`.
template <typename In>
std::uint64_t eval_comb_cell(CellKind kind, std::uint64_t param,
                             std::uint64_t out_mask, In&& in,
                             const std::uint8_t* widths,
                             std::uint16_t input_count) {
  std::uint64_t result = 0;
  switch (kind) {
    case CellKind::kConst: result = param; break;
    case CellKind::kAdd: result = in(0) + in(1); break;
    case CellKind::kSub: result = in(0) - in(1); break;
    case CellKind::kMul: result = in(0) * in(1); break;
    case CellKind::kDivU: result = div_u(in(0), in(1)); break;
    case CellKind::kDivS:
      result = div_s(sign_extend(in(0), widths[0]),
                     sign_extend(in(1), widths[1]));
      break;
    case CellKind::kRemU: result = rem_u(in(0), in(1)); break;
    case CellKind::kRemS:
      result = rem_s(sign_extend(in(0), widths[0]),
                     sign_extend(in(1), widths[1]));
      break;
    case CellKind::kAnd: result = in(0) & in(1); break;
    case CellKind::kOr: result = in(0) | in(1); break;
    case CellKind::kXor: result = in(0) ^ in(1); break;
    case CellKind::kNot: result = ~in(0); break;
    case CellKind::kShl: result = shl(in(0), in(1)); break;
    case CellKind::kShrU: result = shr_u(in(0), in(1)); break;
    case CellKind::kShrS:
      result = shr_s(sign_extend(in(0), widths[0]), in(1));
      break;
    case CellKind::kEq: result = in(0) == in(1); break;
    case CellKind::kNe: result = in(0) != in(1); break;
    case CellKind::kLtU: result = in(0) < in(1); break;
    case CellKind::kLtS:
      result = sign_extend(in(0), widths[0]) < sign_extend(in(1), widths[1]);
      break;
    case CellKind::kLeU: result = in(0) <= in(1); break;
    case CellKind::kLeS:
      result = sign_extend(in(0), widths[0]) <= sign_extend(in(1), widths[1]);
      break;
    case CellKind::kMux: result = in(0) ? in(2) : in(1); break;
    case CellKind::kZext: result = in(0); break;
    case CellKind::kSext:
      result = static_cast<std::uint64_t>(sign_extend(in(0), widths[0]));
      break;
    case CellKind::kSlice: result = in(0) >> param; break;
    case CellKind::kConcat: {
      unsigned shift = 0;
      for (std::uint16_t i = 0; i < input_count; ++i) {
        result |= in(i) << shift;
        shift += widths[i];
      }
      break;
    }
    case CellKind::kRegister:
    case CellKind::kRamRead:
    case CellKind::kRamWrite:
      break;  // sequential cells never reach the comb evaluator
  }
  return result & out_mask;
}

}  // namespace hermes::hw
