// Technology mapping: word-level netlist cells onto fabric primitives.
//
// The first NXmap stage (paper Fig. 3: synthesis). Each hw::Module cell is
// mapped to LUT4s / carry chains / DSPs; memories map onto block RAMs ("the
// components used by Bambu for arithmetic operations and the storage modules
// have been customized to be compliant with the NXmap synthesis guidelines",
// i.e. mapped onto the actual DSPs and True Dual Port RAMs of the fabric).
#pragma once

#include <cstdint>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"
#include "hls/techlib.hpp"
#include "hw/netlist.hpp"
#include "nxmap/device.hpp"

namespace hermes::nx {

#define HERMES_PRIM_KINDS(X)                                                  \
  X(kLutCluster, "lut_cluster") X(kCarryChain, "carry_chain") X(kDsp, "dsp")  \
  X(kBram, "bram") X(kFf, "ff")
HERMES_ENUM(PrimKind, std::uint8_t, HERMES_PRIM_KINDS)

/// One mapped instance: the fabric realization of one netlist cell.
struct MappedInstance {
  PrimKind kind = PrimKind::kLutCluster;
  std::size_t cell_index = 0;   ///< originating hw cell (SIZE_MAX for memories)
  std::size_t memory_index = SIZE_MAX;
  unsigned luts = 0;
  unsigned ffs = 0;
  unsigned dsps = 0;
  unsigned brams = 0;
  double internal_delay_ns = 0.0;  ///< input-to-output through the primitive
};

struct Utilization {
  std::size_t luts = 0, ffs = 0, dsps = 0, brams = 0;
  double lut_pct = 0, dsp_pct = 0, bram_pct = 0;
};

struct MappedDesign {
  std::vector<MappedInstance> instances;
  /// instance index driving each wire (SIZE_MAX for input ports).
  std::vector<std::size_t> driver_of_wire;
  Utilization utilization;
};

/// Maps the module. Fails with kResourceExhausted if the design does not fit
/// the device.
Result<MappedDesign> techmap(const hw::Module& module, const NxDevice& device);

}  // namespace hermes::nx
