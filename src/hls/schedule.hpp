// Scheduling — the second of the three core HLS steps on the CDFG.
//
// Per-block resource-constrained list scheduling with operation chaining:
// within a state, a chain of single-cycle operators may share the clock
// period as long as their accumulated delay fits (Eucalyptus delays decide).
// Multi-cycle operators (iterative dividers, wide multipliers at tight
// clocks) occupy their functional unit for several states and exchange data
// through registers only.
//
// Timing rules implemented here are mirrored exactly by the FSMD generator
// (fsmd.cpp); see the DepKind table in the .cpp for the per-hazard
// separation requirements.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "hls/techlib.hpp"
#include "ir/cdfg.hpp"
#include "ir/ir.hpp"

namespace hermes::hls {

/// User constraints for allocation + scheduling.
struct Constraints {
  double clock_period_ns = 10.0;
  unsigned multipliers = 2;   ///< shared multiplier FUs
  unsigned dividers = 1;      ///< shared iterative-divider FUs
  bool allow_chaining = true; ///< ablation D2: false = one op level per state
  /// Ablation D1: false disables the resource limits (pure dependence-driven
  /// ASAP — models an unconstrained allocation).
  bool enforce_resources = true;
  /// Register binding: pack block-local single-def temporaries whose
  /// scheduled live intervals do not overlap into shared datapath registers
  /// (left-edge). Ablation D6.
  bool merge_registers = true;
};

/// Placement of one instruction in the state sequence (absolute state ids).
struct InstrSlot {
  unsigned start = 0;        ///< first state the operation occupies
  unsigned end = 0;          ///< last state it occupies (>= start)
  unsigned write_state = 0;  ///< state whose closing edge writes the result
  bool is_const_wire = false;///< materialized as a constant net, no state
  double chain_delay_ns = 0; ///< accumulated comb delay at this op's output
};

struct BlockSchedule {
  unsigned entry_state = 0;
  unsigned exit_state = 0;   ///< state in which the terminator fires
  std::vector<InstrSlot> slots;  ///< one per instruction in the block
};

struct Schedule {
  std::vector<BlockSchedule> blocks;
  unsigned num_states = 0;   ///< total datapath states (excluding IDLE/DONE)
  Constraints constraints;
  // Observed peak parallel demand (before constraining), for reports.
  unsigned peak_multipliers = 0;
  unsigned peak_dividers = 0;
  unsigned peak_memory_ports = 0;
};

/// Schedules every block of `function`. Fails only on malformed input (the
/// resource model always admits a serial schedule).
Result<Schedule> schedule(const ir::Function& function, const TechLibrary& lib,
                          const Constraints& constraints);

/// Registers with more than one writing instruction (or any non-const
/// writer); constants targeting such registers cannot be turned into plain
/// wires. Shared helper for the scheduler and the FSMD generator.
std::vector<bool> regs_needing_registers(const ir::Function& function);

}  // namespace hermes::hls
