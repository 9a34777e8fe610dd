// Static timing analysis (NXmap "includes both synthesis and static timing
// analysis tools", HERMES Sec. II).
//
// Longest register-to-register (or port-to-register) combinational path over
// the mapped, placed and routed design: cell internal delays from the tech
// map, interconnect delays from the router. Reports the critical path and
// the resulting Fmax; checks an optional target clock.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/netlist.hpp"
#include "nxmap/route.hpp"
#include "nxmap/techmap.hpp"

namespace hermes::nx {

struct TimingReport {
  double critical_path_ns = 0.0;   ///< worst comb path incl. setup + skew
  double fmax_mhz = 0.0;
  bool meets_target = true;
  double target_period_ns = 0.0;
  double slack_ns = 0.0;
  std::vector<std::string> critical_path;  ///< cell names along the worst path
};

/// Runs STA. `target_period_ns` == 0 skips the timing check (report only);
/// a target that is negative or not finite is kInvalidArgument.
Result<TimingReport> analyze_timing(const hw::Module& module,
                                    const MappedDesign& design,
                                    const Routing& routing,
                                    const NxDevice& device,
                                    double target_period_ns = 0.0);

}  // namespace hermes::nx
