// Testbench harness: co-simulation of the generated accelerator against the
// IR interpreter golden model.
//
// "Bambu supports the creation of a testbench ... so that data exchange can
// be simulated to verify its correctness" (HERMES, Sec. II). This harness is
// that testbench: it drives the start/done handshake on the cycle-accurate
// netlist simulator, loads interface memories before the run, compares the
// return value and final memory contents with the interpreter, and reports
// the accelerator's cycle count.
//
// Like the Verilator run of the paper's flow, the hardware side executes
// compiled native code: the FSMD itself on hw::SimBackend::kJit. Every FSMD
// cell reaches a port or a RAM write and no wire dangles (hls/fsmd.hpp), so
// cosim checks exactly the netlist the backend packs into the bitstream.
// JIT compile cost is paid back on every catalog kernel; where native code
// cannot run the simulator falls back to the event engine with
// bit-identical results. The event engine on the same FSMD stays the
// differential oracle (tests/test_cosim.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.hpp"
#include "hls/flow.hpp"
#include "ir/interp.hpp"

namespace hermes::hls {

struct CosimResult {
  bool match = true;                  ///< hardware == golden on all outputs
  std::uint64_t hw_cycles = 0;        ///< accelerator latency (start -> done)
  std::uint64_t sw_instructions = 0;  ///< golden-model dynamic op count
  std::uint64_t return_value = 0;
  std::string mismatch;               ///< description of the first mismatch
};

/// One co-simulation: `scalar_args` in parameter order (arrays skipped),
/// `memory_images` keyed by IR memory index for interface memories.
/// kInvalidArgument, before either model runs, when the scalar count differs
/// from the function's scalar parameters or an image names a memory that
/// does not exist, is not an interface memory, or is shallower than the
/// image.
Result<CosimResult> cosimulate(
    const FlowResult& flow, const std::vector<std::uint64_t>& scalar_args,
    const std::map<std::size_t, std::vector<std::uint64_t>>& memory_images,
    std::uint64_t max_cycles = 2'000'000);

}  // namespace hermes::hls
