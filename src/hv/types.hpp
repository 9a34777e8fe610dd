// XtratuM NextGeneration hypervisor model — core types.
//
// "XtratuM is a bare-metal space-qualified hypervisor aimed at safe and
// efficient execution of embedded real-time systems ... [the] time and space
// partitioning (TSP) concept" (HERMES, Sec. III). The model reproduces the
// mechanisms the qualification argues about: ARINC-653-style cyclic plans on
// the quad-core R52, partition state machines, hypercalls, sampling/queuing
// ports, MPU space isolation and a health monitor — at microsecond
// granularity on a simulated machine (we have no silicon; see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/enum_names.hpp"

namespace hermes::hv {

using Time = std::uint64_t;          ///< microseconds since boot
using PartitionId = std::uint32_t;
inline constexpr PartitionId kNoPartition = ~0u;
inline constexpr unsigned kNumCores = 4;  ///< quad-core ARM R52 (paper Fig. 1)

/// Partition operating states (XtratuM partition life cycle).
#define HERMES_PARTITION_STATES(X)                                            \
  /* loaded, not yet running */                                               \
  X(kBoot, "BOOT")                                                            \
  /* scheduled according to the plan */                                       \
  X(kNormal, "NORMAL")                                                        \
  /* voluntarily idle until next slot */                                      \
  X(kIdle, "IDLE")                                                            \
  /* removed from scheduling (HM action or hypercall) */                      \
  X(kSuspended, "SUSPENDED")                                                  \
  /* terminally stopped */                                                    \
  X(kHalted, "HALTED")
HERMES_ENUM(PartitionState, std::uint8_t, HERMES_PARTITION_STATES)

/// Space partitioning: one contiguous memory region per partition (MPU
/// granularity on the R52 is region-based, not paged).
struct MemRegion {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  [[nodiscard]] bool contains(std::uint64_t addr, std::uint64_t bytes) const {
    return addr >= base && addr + bytes <= base + size && addr + bytes >= addr;
  }
  [[nodiscard]] bool overlaps(const MemRegion& other) const {
    return base < other.base + other.size && other.base < base + size;
  }
};

/// Health-monitor events (subset of the XtratuM HM table).
#define HERMES_HM_EVENTS(X)                                                   \
  /* access outside the partition's regions */                                \
  X(kMemoryViolation, "memory_violation")                                     \
  /* partition job overran its deadline */                                    \
  X(kDeadlineMiss, "deadline_miss")                                           \
  /* job needed more CPU than the slot provided (detected) */                 \
  X(kBudgetOverrun, "budget_overrun")                                         \
  /* hypercall not permitted to this partition */                             \
  X(kIllegalHypercall, "illegal_hypercall")                                   \
  /* partition raised an error itself */                                      \
  X(kPartitionError, "partition_error")
HERMES_ENUM(HmEvent, std::uint8_t, HERMES_HM_EVENTS)

/// Health-monitor actions.
#define HERMES_HM_ACTIONS(X)                                                  \
  X(kIgnore, "ignore") X(kLog, "log") X(kSuspendPartition, "suspend")         \
  X(kHaltPartition, "halt") X(kRestartPartition, "restart")
HERMES_ENUM(HmAction, std::uint8_t, HERMES_HM_ACTIONS)

/// One scheduling slot of the cyclic plan (per core).
struct Slot {
  Time start = 0;      ///< offset within the major frame
  Time duration = 0;
  PartitionId partition = kNoPartition;  ///< kNoPartition = idle slot
  unsigned vcpu = 0;   ///< which vCPU of the partition runs here
};

/// Cyclic plan: a major time frame replicated forever, one slot table per core.
struct CyclicPlan {
  Time major_frame = 0;
  std::vector<std::vector<Slot>> per_core{kNumCores};
};

/// Periodic real-time workload profile of a partition (used for deadline
/// accounting): a job of `wcet` microseconds is released every `period`.
struct RtProfile {
  Time period = 0;    ///< 0 = not periodic (best-effort)
  Time deadline = 0;  ///< relative; 0 = implicit (== period)
  Time wcet = 0;      ///< per-job execution demand
};

}  // namespace hermes::hv
