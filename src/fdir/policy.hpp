// Isolation policy: from event patterns to isolation/recovery decisions.
//
// Detection alone is not FDIR — the supervisor must decide *what to take
// offline* and *when to stop trusting a layer's own ladder*. This engine
// encodes the three patterns the repo's per-layer ladders cannot judge from
// the inside:
//   * escalation-exhausted — a layer reports its own budget ran out
//     (kExhausted): isolate immediately, the layer has already tried;
//   * repeated-uncorrectable — the same layer keeps detecting faults beyond
//     its means (kUncorrectable) within a sliding window: its state can no
//     longer be trusted, roll back to a checkpoint;
//   * rate-over-window — an event storm from one layer, even of low
//     severity, within the window: isolate before the storm saturates the
//     bus and drowns other layers' detections.
// Decisions are produced in event-arrival order from per-layer sliding
// windows over arrival indices — fully deterministic, no wall clock.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/enum_names.hpp"
#include "fdir/event.hpp"

namespace hermes::fdir {

/// What the supervisor should do about a pattern.
#define HERMES_ISOLATION_ACTIONS(X)                                           \
  X(kNone, "none")                                                            \
  /* stop dispatching to the eFPGA accelerator */                             \
  X(kQuarantineAccelerator, "quarantine_accelerator")                         \
  /* suspend via the hypervisor PartitionApi */                               \
  X(kSuspendPartition, "suspend_partition")                                   \
  /* write-fence the suspect memory region (MPU) */                           \
  X(kFenceMemory, "fence_memory")                                             \
  /* degrade: shed non-critical dataflow work */                              \
  X(kShedDataflow, "shed_dataflow")                                           \
  /* restore the last known-good checkpoint */                                \
  X(kRollback, "rollback")                                                    \
  /* quarantine + drain one NoC containment domain */                         \
  X(kQuarantineNocDomain, "quarantine_noc_domain")
HERMES_ENUM(IsolationAction, std::uint8_t, HERMES_ISOLATION_ACTIONS)

struct PolicyConfig {
  /// Sliding-window length in bus-arrival indices (events, all layers).
  std::uint64_t window = 64;
  /// rate-over-window: events from one layer within the window.
  std::uint64_t rate_threshold = 16;
  /// repeated-uncorrectable: kUncorrectable+ events from one layer within
  /// the window before the layer's state is declared untrustworthy.
  std::uint64_t uncorrectable_threshold = 2;
};

/// One triggered rule. `rule` is a static string naming the pattern — it
/// lands verbatim in the FdirReport audit trail.
struct Decision {
  IsolationAction action = IsolationAction::kNone;
  const char* rule = "";
  Layer layer = Layer::kSupervisor;
  std::uint32_t detail = 0;      ///< from the triggering event
  std::uint64_t stamp = 0;       ///< from the triggering event
};

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyConfig config = {});

  /// Feeds one event in bus-arrival order; returns the decisions it
  /// triggered (possibly none, rarely more than one). Windows that trigger
  /// are cleared so a sustained pattern re-triggers only after re-filling.
  std::vector<Decision> observe(const FdirEvent& event);

  [[nodiscard]] const PolicyConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t observed() const { return arrival_; }

 private:
  /// The isolation a layer's failure maps to (what to take offline when
  /// this layer is the problem).
  static IsolationAction isolation_for(Layer layer);

  PolicyConfig config_;
  std::uint64_t arrival_ = 0;  ///< events observed (the window clock)
  struct LayerWindow {
    std::deque<std::uint64_t> events;         ///< arrival indices, any severity
    std::deque<std::uint64_t> uncorrectable;  ///< kUncorrectable and worse
  };
  std::array<LayerWindow, kNumLayers> windows_;
};

}  // namespace hermes::fdir
