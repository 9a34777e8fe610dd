// End-to-end HLS flow (paper Fig. 2): C source -> front-end (parse, type
// check) -> middle-end (lowering, CDFG, optimization passes) -> back-end
// (allocation, scheduling, binding, FSMD netlist + Verilog).
//
// This is the top-level public API of the Bambu-style tool: one call takes a
// C kernel and produces a synthesizable accelerator plus a per-stage report.
#pragma once

#include <string>

#include "common/status.hpp"
#include "hls/bind.hpp"
#include "hls/fsmd.hpp"
#include "hls/schedule.hpp"
#include "hls/techlib.hpp"
#include "ir/cdfg.hpp"
#include "ir/ir.hpp"
#include "ir/lower.hpp"
#include "ir/passes.hpp"

namespace hermes::hls {

struct FlowOptions {
  std::string top;               ///< kernel function name
  Constraints constraints;       ///< clock + resource constraints
  unsigned unroll_limit = 0;     ///< full-unroll bound for counted loops
  bool run_middle_end = true;    ///< ablation: disable optimization passes
  FpgaTarget target;             ///< defaults to NG-ULTRA

  FlowOptions() : target(ng_ultra()) {}
};

/// Front-end + middle-end + allocation/scheduling/binding — the resumable
/// prefix of the flow, everything up to datapath generation. The compile
/// service (src/svc/) caches this as the "scheduled CDFG" artifact and
/// checks budgets/cancellation between it and finish_flow.
struct ScheduledDesign {
  ir::Function function;                 ///< optimized IR
  ir::CdfgSummary cdfg;
  std::vector<ir::PassReport> passes;
  Schedule schedule;
  Binding binding;
  std::size_t ir_instrs_before = 0;
  std::size_t ir_instrs_after = 0;

  ScheduledDesign() : function("<empty>") {}
};

/// Everything the flow produced, stage by stage: the scheduled design plus
/// its datapath and Verilog.
struct FlowResult : ScheduledDesign {
  FsmdResult fsmd;
  std::string verilog;
  unsigned fsm_states = 0;
};

/// Runs the complete flow on `source`. All stages validate their output;
/// the first failure is returned. Equivalent to run_flow_schedule followed
/// by finish_flow.
Result<FlowResult> run_flow(std::string_view source, const FlowOptions& options);

/// Stage 1: parse, type check, lower, optimize, allocate, schedule, bind.
/// A clock period that is not finite and positive is kInvalidArgument.
Result<ScheduledDesign> run_flow_schedule(std::string_view source,
                                          const FlowOptions& options);

/// Stage 2: FSMD datapath generation + Verilog emission from a scheduled
/// design. Consumes `design` (the IR and schedule move into the result).
Result<FlowResult> finish_flow(ScheduledDesign design);

/// Renders a human-readable flow report (used by examples and FIG2).
std::string flow_report(const FlowResult& result);

}  // namespace hermes::hls
