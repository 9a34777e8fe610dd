// AXI-wrapped HLS accelerators.
//
// An accelerator generated by the HLS flow accesses its interface arrays as
// local block RAM. On the NG-ULTRA the data lives in DDR behind the AXI4
// interconnect, so the generated wrapper either
//   (a) kDmaBurst  — DMAs each interface array in with INCR bursts, runs the
//       kernel out of local BRAM, and DMAs modified arrays back; or
//   (b) kPerAccess — issues one single-beat AXI transaction per load/store
//       (no prefetching, no caching) — the baseline whose "average access
//       time" the paper says caching/prefetching would drastically reduce.
//
// Both wrappers run the same netlist simulation for the compute part; the
// data-movement cycles come from the cycle-driven AXI master/slave pair, so
// the memory-delay sweep in the AXI benchmark measures real protocol traffic.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/enum_names.hpp"
#include "axi/cache.hpp"
#include "axi/master.hpp"
#include "common/status.hpp"
#include "hls/flow.hpp"

namespace hermes::axi {

#define HERMES_AXI_MODES(X)                                                   \
  /* burst DMA in, compute from BRAM, burst DMA out */                        \
  X(kDmaBurst, "dma_burst")                                                   \
  /* one single-beat transaction per dynamic load/store */                    \
  X(kPerAccess, "per_access")                                                 \
  /* per-access behind the configurable AxiCache */                           \
  X(kPerAccessCached, "per_access_cached")
HERMES_ENUM(AxiMode, int, HERMES_AXI_MODES)

struct AxiRunResult {
  bool match = true;
  std::string mismatch;
  std::uint64_t return_value = 0;
  std::uint64_t compute_cycles = 0;   ///< accelerator FSM cycles
  std::uint64_t transfer_cycles = 0;  ///< AXI bus cycles for data movement
  std::uint64_t total_cycles = 0;
  MasterStats bus;
  CacheStats cache;                   ///< kPerAccessCached only
};

/// Placement of interface arrays in the external address space.
struct AxiMap {
  std::map<std::size_t, std::uint64_t> base_addr;  ///< IR memory -> byte addr
};

/// Lays the interface memories out contiguously from `base` (word-aligned).
AxiMap default_axi_map(const ir::Function& function, std::uint64_t base = 0x1000);

/// Runs the accelerator with its data behind the AXI bus. The external
/// memory must be pre-loaded by the caller (poke_word per element); results
/// are written back so the caller can inspect ddr afterwards.
///
/// Per-access modes replay the golden model's dynamic access trace on the
/// live bus (through the cache for kPerAccessCached, with a final flush), so
/// the reported transfer cycles and the final DDR contents are both real.
///
/// Bus failures (SLVERR surviving the retry budget, DECERR, a watchdog trip
/// on a stalled channel) abort the run with the master's Status, so a run
/// against a faulty memory ends in a clean error — never a hang or a
/// silently wrong result. `master_config` tunes that recovery envelope.
Result<AxiRunResult> run_with_axi(const hls::FlowResult& flow,
                                  const std::vector<std::uint64_t>& scalar_args,
                                  AxiSlaveMemory& ddr, const AxiMap& map,
                                  AxiMode mode,
                                  const CacheConfig& cache_config = {},
                                  std::uint64_t max_cycles = 2'000'000,
                                  const MasterConfig& master_config = {});

}  // namespace hermes::axi
