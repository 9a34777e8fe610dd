// The XtratuM-NG hypervisor simulator.
//
// Executes a cyclic plan over the quad-core machine at microsecond
// resolution. Each partition runs one periodic real-time job stream (the
// SELENE-derived use cases: AOCS control loop, VBN image processing, EOR
// planning); jobs consume CPU budget inside the partition's slots and invoke
// their functional payload (a C++ callback with access to the hypercall API)
// on completion. The simulator enforces:
//   * time partitioning  — a partition only advances inside its slots;
//   * space partitioning — every memory access a job performs through the
//     API is checked against the partition's MPU regions;
//   * the health monitor — violations, overruns and deadline misses trigger
//     the configured HM action (log / suspend / halt / restart).
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "common/status.hpp"
#include "fault/injector.hpp"
#include "fdir/event.hpp"
#include "hv/ports.hpp"
#include "hv/types.hpp"

namespace hermes::hv {

class Hypervisor;

/// Hypercall interface handed to partition job callbacks.
class PartitionApi {
 public:
  PartitionApi(Hypervisor& hv, PartitionId id, Time now)
      : hv_(hv), id_(id), now_(now) {}

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] PartitionId id() const { return id_; }

  /// Checked memory access (space partitioning). Byte payloads live in the
  /// machine memory model.
  Status write_mem(std::uint64_t addr, const void* data, std::uint64_t bytes);
  Status read_mem(std::uint64_t addr, void* data, std::uint64_t bytes);

  /// Port hypercalls.
  Status write_port(std::string_view port, const Message& message);
  Result<PortSwitch::SampleResult> read_sample(std::string_view port);
  Result<Message> read_queue(std::string_view port);

  /// Raises an application error (HM kPartitionError).
  void raise_error();

  /// Partition-management hypercalls (system partitions only; others get
  /// HM kIllegalHypercall).
  Status suspend_partition(PartitionId target);
  Status resume_partition(PartitionId target);
  Status halt_partition(PartitionId target);

  /// Requests a scheduling-plan switch (XtratuM mode change). Takes effect
  /// at the next major-frame boundary, never mid-frame. System only.
  Status switch_plan(std::size_t plan_index);

 private:
  Hypervisor& hv_;
  PartitionId id_;
  Time now_;
};

using JobFn = std::function<void(PartitionApi&)>;

/// One guest process inside a partition. Partitions host RTOS guests with
/// several periodic tasks; within the partition's slots they are scheduled
/// priority-preemptively (fixed priorities, higher value wins).
struct ProcessConfig {
  std::string name;
  RtProfile profile;
  unsigned priority = 0;
  JobFn on_job;
};

struct PartitionConfig {
  std::string name;
  MemRegion region;
  bool system = false;   ///< may issue partition-management hypercalls
  RtProfile profile;     ///< single-process shorthand (period 0 = none)
  JobFn on_job;          ///< functional payload, run at job completion
  /// Multi-process guest: when non-empty, supersedes profile/on_job.
  std::vector<ProcessConfig> processes;
};

struct HvConfig {
  CyclicPlan plan;                      ///< plan 0 (boot plan)
  std::vector<CyclicPlan> extra_plans;  ///< plans 1..N for mode changes
  std::vector<PartitionConfig> partitions;
  std::vector<PortConfig> ports;
  std::vector<ChannelConfig> channels;
  Time context_switch_cost = 20;  ///< µs charged at every partition switch
  /// How many HM-driven restarts a partition gets before the monitor
  /// escalates: restart (x budget) -> suspend -> halt. A crash-looping
  /// partition is taken out instead of thrashing the schedule forever.
  unsigned restart_budget = 3;
  std::map<HmEvent, HmAction> hm_table = {
      {HmEvent::kMemoryViolation, HmAction::kSuspendPartition},
      {HmEvent::kDeadlineMiss, HmAction::kLog},
      {HmEvent::kBudgetOverrun, HmAction::kLog},
      {HmEvent::kIllegalHypercall, HmAction::kSuspendPartition},
      {HmEvent::kPartitionError, HmAction::kRestartPartition},
  };
  std::uint64_t machine_memory_bytes = 1 << 20;  ///< simulated DDR
};

struct ProcessStats {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  Time cpu_time = 0;
  Time max_response = 0;
  std::uint64_t preemptions = 0;  ///< times a higher-priority job cut in
};

struct PartitionStats {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  Time cpu_time = 0;
  Time max_jitter = 0;        ///< release -> first service
  Time max_response = 0;      ///< release -> completion
  std::uint64_t restarts = 0;         ///< HM-driven partition restarts
  std::uint64_t budget_overruns = 0;  ///< jobs caught exceeding their WCET
  PartitionState final_state = PartitionState::kNormal;
  std::vector<ProcessStats> processes;  ///< one per guest process
};

struct HmLogEntry {
  Time when = 0;
  PartitionId partition = kNoPartition;
  HmEvent event = HmEvent::kPartitionError;
  HmAction action = HmAction::kLog;
};

struct RunStats {
  Time simulated = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t major_frames = 0;
  std::vector<PartitionStats> partitions;
  std::vector<HmLogEntry> hm_log;
  std::uint64_t port_messages = 0;
  double core_utilization[kNumCores] = {0, 0, 0, 0};
  std::uint64_t plan_switches = 0;
  std::size_t final_plan = 0;
};

class Hypervisor {
 public:
  explicit Hypervisor(HvConfig config);

  /// Static configuration checks: slot overlap, slots within the MAF,
  /// partition ids in range, MPU region overlap between partitions.
  [[nodiscard]] Status validate() const;

  /// Registers this hypervisor's injection points ("hv.job.overrun" inflates
  /// a job's demand past its declared WCET — the budget watchdog raises
  /// kBudgetOverrun; "hv.partition.crash" raises kPartitionError at a job
  /// completion — exercising the restart-budget escalation).
  void attach_injector(fault::FaultInjector* injector);

  /// Publishes every health-monitor verdict as an FDIR event: restarts as
  /// kRetried, suspend/halt escalations as kExhausted, logged observations
  /// as kInfo — stamped in microseconds with the partition id in `detail`.
  void attach_fdir(fdir::FdirBus* bus) { fdir_ = bus; }

  /// Runs `duration` microseconds (rounded down to whole major frames is NOT
  /// applied — the plan wraps mid-frame if needed).
  Result<RunStats> run(Time duration);

  [[nodiscard]] const PortSwitch& ports() const { return ports_; }
  [[nodiscard]] PartitionState partition_state(PartitionId id) const {
    return state_.at(id).state;
  }

 private:
  friend class PartitionApi;

  struct Job {
    Time release = 0;
    Time deadline = 0;
    Time remaining = 0;
    Time budget = 0;    ///< declared WCET (remaining may exceed it under fault)
    Time consumed = 0;
    bool started = false;
    bool overrun_raised = false;
    Time first_service = 0;
  };

  struct ProcessRt {
    std::deque<Job> queue;
    Time next_release = 0;
  };

  struct PartitionRt {
    PartitionState state = PartitionState::kNormal;
    std::vector<ProcessRt> processes;  ///< parallel to effective processes
    std::size_t last_running = SIZE_MAX;  ///< preemption detection
    unsigned restarts = 0;   ///< HM restarts consumed from the budget
    bool escalated = false;  ///< budget spent; next restart request halts
  };


  void hm_raise(PartitionId id, HmEvent event, Time now);
  void release_jobs(Time upto);
  /// Services partition `id` on one core for [from, to); returns CPU time
  /// actually consumed.
  Time service(PartitionId id, Time from, Time to);

  [[nodiscard]] const CyclicPlan& plan(std::size_t index) const {
    return index == 0 ? config_.plan : config_.extra_plans.at(index - 1);
  }
  [[nodiscard]] std::size_t plan_count() const {
    return 1 + config_.extra_plans.size();
  }
  [[nodiscard]] Status validate_plan(const CyclicPlan& plan,
                                     std::size_t index) const;

  HvConfig config_;
  /// Effective guest processes per partition (the single-process shorthand
  /// materialized as one priority-0 process), fixed at construction.
  std::vector<std::vector<ProcessConfig>> procs_;
  PortSwitch ports_;
  std::vector<PartitionRt> state_;
  std::vector<PartitionStats> stats_;
  std::vector<HmLogEntry> hm_log_;
  std::vector<std::uint8_t> memory_;
  std::uint64_t context_switches_ = 0;
  Time busy_[kNumCores] = {0, 0, 0, 0};
  std::size_t active_plan_ = 0;
  std::size_t pending_plan_ = 0;
  std::uint64_t plan_switches_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  fault::PointId pt_overrun_ = fault::kNoFaultPoint;
  fault::PointId pt_crash_ = fault::kNoFaultPoint;
  fdir::FdirBus* fdir_ = nullptr;
};

}  // namespace hermes::hv
