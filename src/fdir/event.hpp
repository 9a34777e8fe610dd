// Typed cross-layer fault-detection events and the bounded bus that carries
// them to the FDIR supervisor.
//
// HERMES qualifies the NG-ULTRA for space, where the system answer to
// radiation faults is FDIR: detections from every mitigation layer are
// correlated by a supervisor that isolates the failing subsystem and drives
// recovery. The repo's per-layer ladders (AXI retry/watchdog, eFPGA
// readback/scrub, hypervisor health monitoring, dataflow node re-execution,
// EDAC scrub memories) historically only bumped counters; this header is the
// shared vocabulary they use to *report* instead — each recovery rung taken,
// each uncorrectable detection, each exhausted escalation becomes one typed
// event on a bounded, deterministic bus.
//
// Determinism contract: publishers stamp events with their own monotonic
// clock (SoC cycles, hypervisor microseconds, scrub-pass ordinal), publish in
// their own execution order, and the bus preserves arrival order exactly.
// Two runs of the same seeded scenario therefore produce byte-identical
// event streams — the chaos soak fingerprints them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"

namespace hermes::fdir {

/// Which mitigation layer detected the fault.
#define HERMES_FDIR_LAYERS(X)                                                 \
  /* AXI master retry/watchdog ladder */                                      \
  X(kAxi, "axi")                                                              \
  /* boot-chain integrity ladder */                                           \
  X(kBoot, "boot")                                                            \
  /* eFPGA programming path + configuration scrub */                          \
  X(kEfpga, "efpga")                                                          \
  /* standalone EDAC/TMR scrub memories */                                    \
  X(kMemory, "memory")                                                        \
  /* XtratuM health monitor */                                                \
  X(kHypervisor, "hypervisor")                                                \
  /* dataflow node re-execution ladder */                                     \
  X(kDataflow, "dataflow")                                                    \
  /* the FDIR supervisor itself */                                            \
  X(kSupervisor, "supervisor")
HERMES_ENUM(Layer, std::uint8_t, HERMES_FDIR_LAYERS)
inline constexpr std::size_t kNumLayers = enum_count<Layer>;

/// How far up the layer's own ladder the fault got. Ordered: a higher value
/// always means the layer needed (or failed to get) more help.
#define HERMES_FDIR_SEVERITIES(X)                                             \
  /* observation only (logged HM event, plan switch) */                       \
  X(kInfo, "info")                                                            \
  /* masked in place (EDAC single-bit, TMR vote) */                           \
  X(kCorrected, "corrected")                                                  \
  /* a bounded retry/re-write/re-execution rung taken */                      \
  X(kRetried, "retried")                                                      \
  /* detected but beyond the layer's own means */                             \
  X(kUncorrectable, "uncorrectable")                                          \
  /* the layer's escalation budget ran out */                                 \
  X(kExhausted, "exhausted")
HERMES_ENUM(Severity, std::uint8_t, HERMES_FDIR_SEVERITIES)

/// One detection. 24 bytes, trivially copyable — cheap enough that every
/// retry rung in a storm can afford to publish.
struct FdirEvent {
  Layer layer = Layer::kSupervisor;
  Severity severity = Severity::kInfo;
  ErrorCode code = ErrorCode::kOk;  ///< the status the layer saw/returned
  std::uint32_t detail = 0;  ///< layer-specific: frame index, partition id,
                             ///< task id, word count
  std::uint64_t stamp = 0;   ///< publisher's monotonic clock (its own domain)
};

/// Bounded single-consumer event queue. publish() never allocates past the
/// fixed capacity and never blocks: when the bus is full the event is dropped
/// and *counted* — detection loss under an event storm is itself an
/// observable, never a silent hole in the audit trail.
class FdirBus {
 public:
  explicit FdirBus(std::size_t capacity = 256);

  /// Enqueues (or counts a drop when full). Arrival order is preserved.
  void publish(const FdirEvent& event);

  /// Removes and returns every queued event in arrival order.
  [[nodiscard]] std::vector<FdirEvent> drain();

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t published() const { return published_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<FdirEvent> queue_;
  std::uint64_t published_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hermes::fdir
