// The cross-layer FDIR supervisor.
//
// Sits above every per-layer mitigation ladder in the repo and closes the
// qualification loop HERMES argues for: detections flow in as FdirEvents
// (see event.hpp), the policy engine maps patterns to isolation actions
// (policy.hpp), and recovery walks a restart → rollback → safe-mode ladder
// over the checkpoint ring (checkpoint.hpp):
//
//   restart   — re-run the configuration scrub in place and re-verify the
//               digest: cheapest, fixes correctable rot the layer missed;
//   rollback  — Soc::fork() the newest checkpoint whose restored digest
//               verifies (torn targets are discarded, older ones tried),
//               with the injector re-armed via reseeded() so the fault
//               environment stays deterministic after the restore;
//   safe mode — park: accelerator quarantined, non-critical work shed,
//               no further recovery attempted.
//
// Every decision and its outcome lands in the FdirReport audit trail; the
// report fingerprints byte-stably so the chaos soak can prove run-twice
// determinism of the entire detect→isolate→recover pipeline.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "boot/soc.hpp"
#include "common/status.hpp"
#include "fault/injector.hpp"
#include "fdir/checkpoint.hpp"
#include "fdir/event.hpp"
#include "fdir/policy.hpp"
#include "hv/hypervisor.hpp"

namespace hermes::noc {
class Crossbar;
}

namespace hermes::fdir {

/// Mission posture, monotone for a given run: kNominal → kDegraded → kSafe.
/// A successful rollback keeps the system degraded (the fault environment
/// that forced it is still there); only safe mode is terminal.
#define HERMES_FDIR_MODES(X)                                                  \
  X(kNominal, "nominal") X(kDegraded, "degraded") X(kSafe, "safe")
HERMES_ENUM(FdirMode, std::uint8_t, HERMES_FDIR_MODES)

struct FdirConfig {
  PolicyConfig policy;
  std::size_t checkpoint_ring = 4;
  /// In-place restart rungs (scrub + digest re-verify) before rolling back.
  unsigned max_restart_attempts = 1;
  /// Rollbacks before the ladder escalates to safe mode.
  unsigned max_rollbacks = 2;
  /// Seed base for re-arming the injector after rollback `n` (seed base + n):
  /// deterministic, but each restore gets fresh per-point RNG streams.
  std::uint64_t rollback_seed_base = 0x9E3779B97F4A7C15ULL;
};

/// One isolation/recovery action in the audit trail.
struct FdirActionRecord {
  std::uint64_t stamp = 0;        ///< triggering event's stamp
  const char* rule = "";          ///< policy rule that fired
  IsolationAction action = IsolationAction::kNone;
  Layer layer = Layer::kSupervisor;
  std::uint32_t detail = 0;
  std::uint64_t checkpoint_id = ~0ULL;  ///< rollback target, ~0 otherwise
  bool ok = false;                ///< the action took effect
};

/// The auditable trail of one supervised run.
struct FdirReport {
  std::uint64_t events_consumed = 0;
  std::uint64_t events_dropped = 0;  ///< bus overflow (detection loss)
  std::uint64_t per_layer[kNumLayers] = {};
  std::vector<FdirActionRecord> actions;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoints_refused = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t suspensions = 0;
  std::uint64_t fences = 0;
  std::uint64_t sheds = 0;
  std::uint64_t noc_quarantines = 0;   ///< NoC containment domains parked
  std::uint64_t noc_readmissions = 0;  ///< domains re-admitted post-recovery
  std::uint64_t safe_mode_entries = 0;
  std::uint64_t suppressed = 0;  ///< decisions that were already in effect
  FdirMode final_mode = FdirMode::kNominal;

  /// FNV-1a over every counter, action record and rule string — byte-stable
  /// across runs, the soak's run-twice equality witness.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Human-readable audit trail.
  [[nodiscard]] std::string render() const;
};

class FdirSupervisor {
 public:
  FdirSupervisor(FdirConfig config, FdirBus& bus);

  /// Wires the supervised SoC: attaches the bus for detection, records the
  /// current configuration digest as the known-good reference, and keeps
  /// the injector + plan shape for deterministic re-arming after rollback.
  /// The plan is the *shape* replayed on restore; pass the plan the mission
  /// runs under. `injector` may be null (no re-arming on rollback).
  void attach_soc(boot::Soc* soc, fault::FaultInjector* injector,
                  fault::FaultPlan base_plan);

  /// Wires the hypervisor: attaches the bus, and remembers which partition
  /// carries system privilege — isolation suspends target partitions via a
  /// PartitionApi issued on its behalf (the XtratuM way: the supervisor is
  /// a system partition's payload, not a backdoor).
  void attach_hypervisor(hv::Hypervisor* hv, hv::PartitionId system_partition);

  /// Wires the interconnect: attaches the bus so fabric detections (Layer::
  /// kNoc, containment domain in `detail`) reach the policy engine, and lets
  /// the supervisor quarantine/drain/re-admit domains, park the fabric in
  /// safe mode, and mask a suspended partition's ports.
  void attach_noc(noc::Crossbar* fabric);

  /// Takes a checkpoint now (refuses cleanly when not quiescent/clean —
  /// see CheckpointManager::take).
  Status checkpoint();

  /// Drains the bus, feeds the policy engine in arrival order, executes
  /// every triggered decision. Returns the number of events consumed.
  std::size_t poll();

  [[nodiscard]] FdirMode mode() const { return mode_; }
  [[nodiscard]] bool efpga_quarantined() const { return efpga_quarantined_; }
  [[nodiscard]] bool memory_fenced() const { return fenced_; }
  [[nodiscard]] const FdirReport& report() const { return report_; }
  [[nodiscard]] CheckpointManager& checkpoints() { return checkpoints_; }
  [[nodiscard]] const FdirConfig& config() const { return config_; }

 private:
  void execute(const Decision& decision);
  void record(const Decision& decision, std::uint64_t checkpoint_id, bool ok);
  /// Restart rung: scrub in place, succeed if the state re-verifies.
  bool try_restart();
  /// Rollback rung: fork the newest checkpoint that restores digest-clean.
  /// Returns the checkpoint id via `restored_id` on success.
  bool try_rollback(std::uint64_t* restored_id);
  void enter_degraded();
  void enter_safe_mode();

  FdirConfig config_;
  FdirBus& bus_;
  PolicyEngine policy_;
  CheckpointManager checkpoints_;
  FdirReport report_;
  FdirMode mode_ = FdirMode::kNominal;

  boot::Soc* soc_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  fault::FaultPlan base_plan_;
  std::uint64_t reference_digest_ = 0;
  bool have_reference_ = false;

  hv::Hypervisor* hv_ = nullptr;
  hv::PartitionId system_partition_ = hv::kNoPartition;
  noc::Crossbar* noc_ = nullptr;

  bool efpga_quarantined_ = false;
  bool fenced_ = false;
  bool recovering_ = false;
  std::set<std::uint32_t> suspended_partitions_;
};

}  // namespace hermes::fdir
