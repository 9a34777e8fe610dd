// The compile half of the kernel_flow op, shared with qual_campaign's set-up.
#pragma once

#include "harness.hpp"

namespace e2e {

/// One kernel compiled to a bitstream.
struct Compiled {
  hermes::hls::FlowResult flow;
  hermes::nx::BackendResult backend;
  // Filled by compile_traced only:
  std::size_t cells = 0;        ///< FSMD netlist cells before the dead-cell sweep
  std::size_t cells_swept = 0;  ///< cells the sweep removed
};

/// hls::run_flow followed by nx::run_backend.
hermes::Result<Compiled> compile(const KernelInstance& kernel,
                                 const hermes::nx::NxDevice& device);

/// The same flow as compile(), called stage by stage with one span per
/// public sub-stage.
hermes::Result<Compiled> compile_traced(const KernelInstance& kernel,
                                        const hermes::nx::NxDevice& device,
                                        Trace* trace);

/// Adds the boot report's counters to the trace; `recovered` marks an
/// episode that reached the application with every digest correct.
void count_boot(Trace& trace, const hermes::boot::BootResult& booted,
                bool recovered);

}  // namespace e2e
