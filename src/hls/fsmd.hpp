// FSMD (finite-state machine + datapath) generation — the Bambu back-end.
//
// Consumes the scheduled and bound IR and produces a hw::Module:
//   * an FSM with one IDLE state, the scheduled datapath states, and a DONE
//     state (start/done handshake);
//   * one datapath register per register-backed virtual register, written on
//     the closing edge of its producer's write state;
//   * shared multiplier/divider instances with state-selected operand muxes;
//   * one RAM port instance per bound memory port (address/data muxed by
//     state; dual-port memories get two).
//
// Timing rules match hls/schedule.cpp exactly: a consumer scheduled in its
// RAW producer's write state taps the producer's combinational result wire
// (operation chaining); later consumers read the register.
//
// The module is live: generation ends with hw::sweep_dead_cells, so every
// cell reaches an output port or a RAM write (unread registers, their
// enable trees, unused read ports and argument latches are gone) and no
// wire dangles. It is the netlist the Verilog, the digest, cosim, SEU
// campaigns and the backend all see; the backend maps it as given.
#pragma once

#include "common/status.hpp"
#include "hls/bind.hpp"
#include "hls/schedule.hpp"
#include "hw/netlist.hpp"
#include "ir/ir.hpp"

namespace hermes::hls {

struct FsmdResult {
  hw::Module module{"<empty>"};
  unsigned num_states = 0;   ///< FSM states including IDLE and DONE
  unsigned idle_state = 0;
  unsigned done_state = 0;
  /// Memory index mapping: IR memory i is module memory i (identity), kept
  /// explicit for testbench code readability.
  std::size_t memory_count = 0;
};

/// Generates the accelerator module. The handshake protocol:
///   - drive scalar argument ports and assert `start`;
///   - arguments are latched while in IDLE with start high;
///   - `done` rises when the kernel finishes; `return_value` (if non-void)
///     is then valid and stable;
///   - deassert `start` to return to IDLE.
Result<FsmdResult> generate_fsmd(const ir::Function& function,
                                 const Schedule& schedule,
                                 const Binding& binding);

}  // namespace hermes::hls
