#include "nxmap/sta.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/strings.hpp"

namespace hermes::nx {

Result<TimingReport> analyze_timing(const hw::Module& module,
                                    const MappedDesign& design,
                                    const Routing& routing,
                                    const NxDevice& device,
                                    double target_period_ns) {
  if (!std::isfinite(target_period_ns) || target_period_ns < 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "target period must be finite and non-negative");
  }
  const auto& cells = module.cells();

  // Arrival time per wire. Sources (register/RAM outputs, ports, consts)
  // start at their launch delay; combinational cells propagate in topo order.
  std::vector<double> arrival(module.wire_count(), 0.0);
  std::vector<std::size_t> critical_pred_cell(module.wire_count(), SIZE_MAX);

  // Topological order over comb cells (same algorithm as the simulator).
  std::vector<std::size_t> driver_of(module.wire_count(), SIZE_MAX);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (hw::WireId wire : cells[i].outputs) driver_of[wire] = i;
  }
  std::vector<unsigned> pending(cells.size(), 0);
  std::vector<std::vector<std::size_t>> dependents(cells.size());
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (hw::is_sequential(cells[i].kind)) continue;
    unsigned deps = 0;
    for (hw::WireId wire : cells[i].inputs) {
      const std::size_t driver = driver_of[wire];
      if (driver == SIZE_MAX || hw::is_sequential(cells[driver].kind)) continue;
      ++deps;
      dependents[driver].push_back(i);
    }
    pending[i] = deps;
    if (deps == 0) ready.push(i);
  }

  // Launch delays: sequential outputs start after clock-to-q (modeled inside
  // bram_access for RAM reads; registers launch at 0 + routing).
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!hw::is_sequential(cells[i].kind) || cells[i].outputs.empty()) continue;
    const double q_delay = cells[i].kind == hw::CellKind::kRamRead
                               ? device.target.bram_access_ns * 0.5
                               : 0.0;
    for (hw::WireId wire : cells[i].outputs) arrival[wire] = q_delay;
  }

  double worst = 0.0;
  std::size_t worst_cell = SIZE_MAX;

  std::size_t processed = 0;
  while (!ready.empty()) {
    const std::size_t index = ready.front();
    ready.pop();
    ++processed;
    const hw::Cell& cell = cells[index];
    double input_arrival = 0.0;
    for (hw::WireId wire : cell.inputs) {
      input_arrival = std::max(
          input_arrival, arrival[wire] + routing.wire_delay_ns[wire]);
    }
    const double out_arrival =
        input_arrival + design.instances[index].internal_delay_ns;
    for (hw::WireId wire : cell.outputs) {
      arrival[wire] = out_arrival;
      critical_pred_cell[wire] = index;
    }
    if (out_arrival > worst) {
      worst = out_arrival;
      worst_cell = index;
    }
    for (std::size_t dep : dependents[index]) {
      if (--pending[dep] == 0) ready.push(dep);
    }
  }
  std::size_t comb_count = 0;
  for (const hw::Cell& cell : cells) {
    if (!hw::is_sequential(cell.kind)) ++comb_count;
  }
  if (processed != comb_count) {
    return Status::Error(ErrorCode::kInternal, "combinational loop during STA");
  }

  // Also account for paths ending at sequential inputs.
  for (const hw::Cell& cell : cells) {
    if (!hw::is_sequential(cell.kind)) continue;
    for (hw::WireId wire : cell.inputs) {
      const double at = arrival[wire] + routing.wire_delay_ns[wire];
      if (at > worst) {
        worst = at;
        worst_cell = driver_of[wire];
      }
    }
  }

  TimingReport report;
  report.critical_path_ns =
      worst + device.target.ff_setup_ns + device.target.clock_skew_ns;
  report.fmax_mhz =
      report.critical_path_ns > 0 ? 1000.0 / report.critical_path_ns : 1e6;
  report.target_period_ns = target_period_ns;
  if (target_period_ns > 0) {
    report.slack_ns = target_period_ns - report.critical_path_ns;
    report.meets_target = report.slack_ns >= 0;
  }

  // Reconstruct the critical path (bounded length for the report).
  std::size_t cursor = worst_cell;
  for (int depth = 0; depth < 16 && cursor != SIZE_MAX; ++depth) {
    const hw::Cell& cell = cells[cursor];
    report.critical_path.push_back(
        cell.name.empty() ? hw::to_string(cell.kind) : cell.name);
    // A sequential cell launches the path: its inputs belong to the
    // previous cycle.
    if (hw::is_sequential(cell.kind)) break;
    // Step to the input that sets the cell's input arrival: the latest
    // arrival plus routed delay, the quantity the forward pass maximizes.
    std::size_t next = SIZE_MAX;
    double best = -1.0;
    for (hw::WireId wire : cell.inputs) {
      const double at = arrival[wire] + routing.wire_delay_ns[wire];
      if (at > best) {
        best = at;
        next = critical_pred_cell[wire];
      }
    }
    cursor = next;
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());
  return report;
}

}  // namespace hermes::nx
