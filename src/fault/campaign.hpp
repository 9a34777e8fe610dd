// Parallel SEU campaign runner.
//
// Fault campaigns (DESIGN.md experiment TMR, paper Secs. I/IV) repeat the
// same inject-scrub-readback experiment over many independent replicas and
// many netlist fault sites. Every replica is independent, so the runner fans
// them out over a ThreadPool with one ScrubMemory / hw::Simulator replica per
// task and a deterministic per-replica RNG seed: results are bit-identical to
// the serial run regardless of worker count.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/threadpool.hpp"
#include "fault/scrub_memory.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"

namespace hermes::fault {

/// Deterministic per-replica seed: a SplitMix64 mix of the campaign base
/// seed and the replica index, independent of worker assignment.
std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t replica);

/// One scrub-memory campaign: `replicas` independent memories, each written
/// with a fixed pattern and put through `intervals` inject+scrub rounds.
struct ScrubCampaignPlan {
  std::size_t replicas = 8;
  std::size_t memory_words = 4096;
  Protection protection = Protection::kTmr;
  SeuCampaignConfig seu;       ///< per-interval upset model (seed field unused)
  unsigned intervals = 16;
  std::uint64_t base_seed = 1;
};

struct ScrubCampaignResult {
  std::vector<ScrubReport> per_replica;  ///< summed over that replica's intervals
  ScrubReport total;                     ///< summed over all replicas
};

/// Runs the plan on `pool` (nullptr = the process-wide pool). Bit-identical
/// for any worker count, including a ThreadPool with 0 workers (serial).
ScrubCampaignResult run_scrub_campaign(const ScrubCampaignPlan& plan,
                                       ThreadPool* pool = nullptr);

/// One netlist SEU campaign: per replica, a golden and a faulty Simulator
/// run side by side; after `cycles_before` cycles a random register bit is
/// flipped in the faulty copy, and both run `cycles_after` more cycles while
/// register state and outputs are compared each cycle.
struct NetlistSeuPlan {
  std::size_t replicas = 32;
  std::uint64_t cycles_before = 4;
  std::uint64_t cycles_after = 32;
  std::uint64_t base_seed = 1;
  /// Input port values applied before running (e.g. {{"start", 1}}).
  std::vector<std::pair<std::string, std::uint64_t>> inputs;
};

struct NetlistSeuOutcome {
  hw::WireId target = hw::kNoWire;  ///< corrupted register output
  unsigned bit = 0;
  bool diverged = false;            ///< any register/output mismatch observed
  std::uint64_t first_divergence_cycle = 0;  ///< cycle index of first mismatch
};

struct NetlistSeuResult {
  std::vector<NetlistSeuOutcome> per_replica;
  std::size_t diverged = 0;  ///< replicas whose upset propagated to state
  /// kInvalidArgument for a plan input that is not an input port, or the
  /// simulator's status when it rejects the module; either way no replica
  /// ran and `per_replica` is empty.
  Status status;
};

/// Runs the plan against `module` on `pool` (nullptr = process-wide pool).
/// Each task owns its two Simulator replicas, built with `sim`; deterministic
/// per-replica seeds keep the result independent of the worker count.
///
/// With `sim.backend = hw::SimBackend::kJit` every replica shares one module
/// digest, so the process-wide jit::KernelCache compiles once and every
/// replica reuses the kernel. Results are bit-identical to the interpreter's
/// for any worker count, and on hosts without JIT support the backend
/// degrades to the interpreter, so any backend is always safe to ask for.
NetlistSeuResult run_netlist_seu_campaign(const hw::Module& module,
                                          const NetlistSeuPlan& plan,
                                          ThreadPool* pool = nullptr,
                                          const hw::SimOptions& sim = {});

/// Bit-sliced variant of run_netlist_seu_campaign: replicas are grouped into
/// batches of 63 (seu.hpp batch math), each batch runs on one
/// hw::SlicedSimulator with lane 0 as the shared golden replica and one fault
/// lane per plan replica. The outcome vector is bit-identical to the serial
/// runner's — same per-replica seeds, same target/bit draws, same divergence
/// flags and first-divergence cycles — for any worker count. The serial path
/// remains the differential oracle; see docs/CAMPAIGNS.md.
NetlistSeuResult run_netlist_seu_campaign_sliced(const hw::Module& module,
                                                 const NetlistSeuPlan& plan,
                                                 ThreadPool* pool = nullptr);

/// Order-sensitive FNV-1a fingerprint of a campaign result — the equality
/// token the tests and the chaos soak compare between the serial oracle and
/// the sliced engine (and between repeated runs).
std::uint64_t fingerprint(const NetlistSeuResult& result);

}  // namespace hermes::fault
