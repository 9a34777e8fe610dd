#include "hls/flow.hpp"

#include <cmath>
#include <sstream>

#include "common/strings.hpp"
#include "frontend/parser.hpp"
#include "frontend/typecheck.hpp"
#include "hw/verilog.hpp"

namespace hermes::hls {

Result<ScheduledDesign> run_flow_schedule(std::string_view source,
                                          const FlowOptions& options) {
  const double period = options.constraints.clock_period_ns;
  if (!std::isfinite(period) || period <= 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "clock period must be finite and positive");
  }

  // ---- front-end ----
  auto program = fe::parse(source);
  if (!program.ok()) return program.status();
  Status typed = fe::typecheck(program.value());
  if (!typed.ok()) return typed;

  // ---- middle-end ----
  ir::LowerOptions lower_options;
  lower_options.unroll_limit = options.unroll_limit;
  auto lowered = ir::lower(program.value(), options.top, lower_options);
  if (!lowered.ok()) return lowered.status();

  ScheduledDesign design;
  design.function = lowered.take();
  design.ir_instrs_before = design.function.instr_count();
  if (options.run_middle_end) {
    design.passes = ir::run_pipeline(design.function);
  } else {
    ir::mark_roms(design.function);
  }
  design.ir_instrs_after = design.function.instr_count();
  design.cdfg = ir::summarize_cdfg(design.function);

  // ---- back-end: allocation + scheduling + binding ----
  const TechLibrary lib(options.target);
  auto scheduled = schedule(design.function, lib, options.constraints);
  if (!scheduled.ok()) return scheduled.status();
  design.schedule = scheduled.take();
  design.binding = bind(design.function, design.schedule);
  return design;
}

Result<FlowResult> finish_flow(ScheduledDesign design) {
  auto fsmd = generate_fsmd(design.function, design.schedule, design.binding);
  if (!fsmd.ok()) return fsmd.status();
  std::string verilog = hw::emit_verilog(fsmd.value().module);
  const unsigned states = fsmd.value().num_states;
  return FlowResult{std::move(design), fsmd.take(), std::move(verilog), states};
}

Result<FlowResult> run_flow(std::string_view source, const FlowOptions& options) {
  auto scheduled = run_flow_schedule(source, options);
  if (!scheduled.ok()) return scheduled.status();
  return finish_flow(scheduled.take());
}

std::string flow_report(const FlowResult& result) {
  std::ostringstream out;
  out << "=== HLS flow report: " << result.function.name() << " ===\n";
  out << format("front-end : %zu IR instructions after lowering\n",
                result.ir_instrs_before);
  out << "middle-end:";
  std::size_t total_changed = 0;
  for (const ir::PassReport& report : result.passes) total_changed += report.changed;
  out << format(" %zu rewrites across %zu pass runs -> %zu instructions\n",
                total_changed, result.passes.size(), result.ir_instrs_after);
  out << format("CDFG      : %zu blocks, %zu nodes, %zu data edges, %zu control edges\n",
                result.cdfg.blocks, result.cdfg.nodes, result.cdfg.data_edges,
                result.cdfg.control_edges);
  out << format("schedule  : %u datapath states (clock %.1f ns)\n",
                result.schedule.num_states,
                result.schedule.constraints.clock_period_ns);
  const BindingStats& bs = result.binding.stats;
  out << format("binding   : %u mul FUs, %u div FUs, %u RAM ports, %u registers "
                "(%u merged), %u ops shared\n",
                bs.multiplier_instances, bs.divider_instances, bs.memory_ports,
                bs.datapath_registers, bs.merged_registers, bs.shared_ops);
  const hw::NetlistStats ns = result.fsmd.module.stats();
  out << format("netlist   : %zu cells (%zu regs / %zu arith / %zu mux), %zu memories (%zu bits)\n",
                ns.cells, ns.registers, ns.arithmetic, ns.muxes, ns.memories,
                ns.memory_bits);
  out << format("FSM       : %u states (incl. IDLE/DONE)\n", result.fsm_states);
  return out.str();
}

}  // namespace hermes::hls
