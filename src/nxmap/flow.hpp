// The complete NXmap backend flow (paper Fig. 3):
//   HDL netlist -> logic synthesis/tech map -> place -> route -> STA ->
//   bitstream, with a power estimate.
//
// "Seamless integration between Bambu and NXmap through the automatic
// generation of backend synthesis scripts" — here the integration is a
// direct API call taking the hw::Module the HLS back-end produced.
#pragma once

#include <string>

#include "common/status.hpp"
#include "nxmap/bitstream.hpp"
#include "nxmap/device.hpp"
#include "nxmap/place.hpp"
#include "nxmap/power.hpp"
#include "nxmap/route.hpp"
#include "nxmap/sta.hpp"
#include "nxmap/techmap.hpp"

namespace hermes::nx {

/// run_backend_map rejects a channel capacity that is not finite and
/// positive, and its STA a target that is negative or not finite
/// (kInvalidArgument).
struct BackendOptions {
  double target_period_ns = 0.0;  ///< 0 = report-only STA
  PlaceOptions place;
  RouteOptions route;
};

/// Map/place/route/STA/power — everything except bitstream packing. The
/// compile service (src/svc/) caches this as the "mapped netlist" artifact;
/// pack_backend produces the bitstream from it alone, so a warm map entry
/// skips synthesis, placement and routing entirely.
struct MapResult {
  /// Post dead-cell-sweep module — the netlist placement/routing/packing
  /// actually operate on (pack_backend needs it verbatim).
  hw::Module synthesized{"<empty>"};
  MappedDesign mapped;
  Placement placement;
  Routing routing;
  TimingReport timing;
  PowerReport power;
};

/// Packed programming image plus its self-verification record.
struct PackResult {
  std::vector<std::uint8_t> bitstream;
  /// Self-check of the packed image: the backend re-runs verify_bitstream on
  /// its own output, so a flow never hands BL1 an unprogrammable bitstream.
  BitstreamInfo bitstream_info;
};

/// The whole backend's products: the mapped design and its bitstream.
struct BackendResult : MapResult, PackResult {};

/// Runs the full backend on a synthesizable module for the given device.
/// Equivalent to run_backend_map followed by pack_backend.
Result<BackendResult> run_backend(const hw::Module& module,
                                  const NxDevice& device,
                                  const BackendOptions& options = {});

/// Stage 1: logic-synthesis cleanup, tech mapping, placement, routing, STA
/// and the power estimate.
Result<MapResult> run_backend_map(const hw::Module& module,
                                  const NxDevice& device,
                                  const BackendOptions& options = {});

/// Stage 2: packs and self-verifies the bitstream for a mapped design.
Result<PackResult> pack_backend(const MapResult& map, const NxDevice& device);

/// Human-readable end-of-flow report (utilization, timing, power, bitstream).
std::string backend_report(const BackendResult& result, const NxDevice& device);

}  // namespace hermes::nx
