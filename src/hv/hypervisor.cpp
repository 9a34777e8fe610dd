#include "hv/hypervisor.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"

namespace hermes::hv {

// ---------------------------------------------------------------------------
// PartitionApi
// ---------------------------------------------------------------------------

Status PartitionApi::write_mem(std::uint64_t addr, const void* data,
                               std::uint64_t bytes) {
  const PartitionConfig& config = hv_.config_.partitions[id_];
  if (!config.region.contains(addr, bytes)) {
    hv_.hm_raise(id_, HmEvent::kMemoryViolation, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         format("partition %u write outside its region", id_));
  }
  if (addr + bytes <= hv_.memory_.size()) {
    std::memcpy(hv_.memory_.data() + addr, data, bytes);
  }
  return Status::Ok();
}

Status PartitionApi::read_mem(std::uint64_t addr, void* data,
                              std::uint64_t bytes) {
  const PartitionConfig& config = hv_.config_.partitions[id_];
  if (!config.region.contains(addr, bytes)) {
    hv_.hm_raise(id_, HmEvent::kMemoryViolation, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         format("partition %u read outside its region", id_));
  }
  if (addr + bytes <= hv_.memory_.size()) {
    std::memcpy(data, hv_.memory_.data() + addr, bytes);
  } else {
    std::memset(data, 0, bytes);
  }
  return Status::Ok();
}

Status PartitionApi::write_port(std::string_view port, const Message& message) {
  return hv_.ports_.write(id_, port, message, now_);
}

Result<PortSwitch::SampleResult> PartitionApi::read_sample(std::string_view port) {
  return hv_.ports_.read_sample(id_, port, now_);
}

Result<Message> PartitionApi::read_queue(std::string_view port) {
  return hv_.ports_.read_queue(id_, port);
}

void PartitionApi::raise_error() {
  hv_.hm_raise(id_, HmEvent::kPartitionError, now_);
}

Status PartitionApi::suspend_partition(PartitionId target) {
  if (!hv_.config_.partitions[id_].system) {
    hv_.hm_raise(id_, HmEvent::kIllegalHypercall, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         "partition-management hypercall from non-system partition");
  }
  if (target >= hv_.state_.size()) {
    return Status::Error(ErrorCode::kNotFound, "no such partition");
  }
  hv_.state_[target].state = PartitionState::kSuspended;
  return Status::Ok();
}

Status PartitionApi::resume_partition(PartitionId target) {
  if (!hv_.config_.partitions[id_].system) {
    hv_.hm_raise(id_, HmEvent::kIllegalHypercall, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         "partition-management hypercall from non-system partition");
  }
  if (target >= hv_.state_.size()) {
    return Status::Error(ErrorCode::kNotFound, "no such partition");
  }
  if (hv_.state_[target].state == PartitionState::kSuspended) {
    hv_.state_[target].state = PartitionState::kNormal;
  }
  return Status::Ok();
}

Status PartitionApi::switch_plan(std::size_t plan_index) {
  if (!hv_.config_.partitions[id_].system) {
    hv_.hm_raise(id_, HmEvent::kIllegalHypercall, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         "plan switch requested by non-system partition");
  }
  if (plan_index >= hv_.plan_count()) {
    return Status::Error(ErrorCode::kNotFound, "no such scheduling plan");
  }
  // XtratuM semantics: the mode change is latched and applied at the next
  // major-frame boundary so the current frame's slots are honoured.
  hv_.pending_plan_ = plan_index;
  return Status::Ok();
}

Status PartitionApi::halt_partition(PartitionId target) {
  if (!hv_.config_.partitions[id_].system && target != id_) {
    hv_.hm_raise(id_, HmEvent::kIllegalHypercall, now_);
    return Status::Error(ErrorCode::kIsolationFault,
                         "partition-management hypercall from non-system partition");
  }
  if (target >= hv_.state_.size()) {
    return Status::Error(ErrorCode::kNotFound, "no such partition");
  }
  hv_.state_[target].state = PartitionState::kHalted;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Hypervisor
// ---------------------------------------------------------------------------

Hypervisor::Hypervisor(HvConfig config) : config_(std::move(config)) {
  // Materialize the effective process list: explicit guest processes, or the
  // single-process shorthand at priority 0.
  procs_.resize(config_.partitions.size());
  for (std::size_t i = 0; i < config_.partitions.size(); ++i) {
    const PartitionConfig& partition = config_.partitions[i];
    if (!partition.processes.empty()) {
      procs_[i] = partition.processes;
    } else if (partition.profile.period != 0) {
      ProcessConfig process;
      process.name = partition.name;
      process.profile = partition.profile;
      process.on_job = partition.on_job;
      process.priority = 0;
      procs_[i] = {std::move(process)};
    }
  }
  state_.resize(config_.partitions.size());
  stats_.resize(config_.partitions.size());
  memory_.assign(config_.machine_memory_bytes, 0);
  for (const PortConfig& port : config_.ports) {
    (void)ports_.add_port(port);
  }
  for (const ChannelConfig& channel : config_.channels) {
    (void)ports_.add_channel(channel);
  }
}

Status Hypervisor::validate_plan(const CyclicPlan& plan,
                                 std::size_t index) const {
  if (plan.major_frame == 0) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         format("plan %zu: major frame is zero", index));
  }
  if (plan.per_core.size() > kNumCores) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         format("plan %zu uses %zu cores, machine has %u",
                                index, plan.per_core.size(), kNumCores));
  }
  for (std::size_t core = 0; core < plan.per_core.size(); ++core) {
    const auto& slots = plan.per_core[core];
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (slot.start + slot.duration > plan.major_frame) {
        return Status::Error(
            ErrorCode::kInvalidArgument,
            format("plan %zu core %zu slot %zu exceeds the major frame",
                   index, core, i));
      }
      if (slot.partition != kNoPartition &&
          slot.partition >= config_.partitions.size()) {
        return Status::Error(ErrorCode::kInvalidArgument,
                             format("plan %zu core %zu slot %zu: bad partition",
                                    index, core, i));
      }
      for (std::size_t j = i + 1; j < slots.size(); ++j) {
        const Slot& other = slots[j];
        if (slot.start < other.start + other.duration &&
            other.start < slot.start + slot.duration) {
          return Status::Error(
              ErrorCode::kInvalidArgument,
              format("plan %zu core %zu: slots %zu and %zu overlap", index,
                     core, i, j));
        }
      }
    }
  }
  return Status::Ok();
}

Status Hypervisor::validate() const {
  for (std::size_t p = 0; p < plan_count(); ++p) {
    Status status = validate_plan(plan(p), p);
    if (!status.ok()) return status;
  }
  // Space partitioning: no two partitions may share memory.
  for (std::size_t a = 0; a < config_.partitions.size(); ++a) {
    for (std::size_t b = a + 1; b < config_.partitions.size(); ++b) {
      if (config_.partitions[a].region.size != 0 &&
          config_.partitions[b].region.size != 0 &&
          config_.partitions[a].region.overlaps(config_.partitions[b].region)) {
        return Status::Error(
            ErrorCode::kIsolationFault,
            format("partitions '%s' and '%s' have overlapping MPU regions",
                   config_.partitions[a].name.c_str(),
                   config_.partitions[b].name.c_str()));
      }
    }
  }
  return Status::Ok();
}

void Hypervisor::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) {
    pt_overrun_ = fault::kNoFaultPoint;
    pt_crash_ = fault::kNoFaultPoint;
    return;
  }
  pt_overrun_ = injector_->register_point("hv.job.overrun");
  pt_crash_ = injector_->register_point("hv.partition.crash");
}

void Hypervisor::hm_raise(PartitionId id, HmEvent event, Time now) {
  const auto it = config_.hm_table.find(event);
  HmAction action = it == config_.hm_table.end() ? HmAction::kLog
                                                 : it->second;
  if (action == HmAction::kRestartPartition &&
      state_[id].restarts >= config_.restart_budget) {
    // Restart budget spent: escalate. First past the budget the partition is
    // suspended (a system partition may still resume it); past that, halted.
    action = state_[id].escalated ? HmAction::kHaltPartition
                                  : HmAction::kSuspendPartition;
    state_[id].escalated = true;
  }
  hm_log_.push_back({now, id, event, action});
  if (fdir_) {
    fdir::Severity severity;
    switch (action) {
      case HmAction::kRestartPartition:
        severity = fdir::Severity::kRetried;
        break;
      case HmAction::kSuspendPartition:
      case HmAction::kHaltPartition:
        severity = fdir::Severity::kExhausted;
        break;
      default:
        severity = fdir::Severity::kInfo;
        break;
    }
    const ErrorCode code =
        event == HmEvent::kMemoryViolation || event == HmEvent::kIllegalHypercall
            ? ErrorCode::kIsolationFault
        : event == HmEvent::kDeadlineMiss || event == HmEvent::kBudgetOverrun
            ? ErrorCode::kDeadlineExceeded
            : ErrorCode::kInternal;
    fdir_->publish({fdir::Layer::kHypervisor, severity, code,
                    static_cast<std::uint32_t>(id), now});
  }
  switch (action) {
    case HmAction::kIgnore:
    case HmAction::kLog:
      break;
    case HmAction::kSuspendPartition:
      state_[id].state = PartitionState::kSuspended;
      break;
    case HmAction::kHaltPartition:
      state_[id].state = PartitionState::kHalted;
      break;
    case HmAction::kRestartPartition:
      for (ProcessRt& process : state_[id].processes) process.queue.clear();
      state_[id].state = PartitionState::kNormal;
      ++state_[id].restarts;
      ++stats_[id].restarts;
      break;
  }
}

void Hypervisor::release_jobs(Time upto) {
  for (PartitionId id = 0; id < state_.size(); ++id) {
    for (std::size_t p = 0; p < procs_[id].size(); ++p) {
      const RtProfile& profile = procs_[id][p].profile;
      if (profile.period == 0) continue;
      ProcessRt& rt = state_[id].processes[p];
      while (rt.next_release < upto) {
        Job job;
        job.release = rt.next_release;
        const Time rel_deadline =
            profile.deadline ? profile.deadline : profile.period;
        job.deadline = rt.next_release + rel_deadline;
        job.remaining = profile.wcet;
        job.budget = profile.wcet;
        if (injector_ && injector_->should_fire(pt_overrun_)) {
          // Fault: this job will demand 8x its declared WCET. The budget
          // watchdog in service() catches it the moment the budget is spent.
          job.remaining = profile.wcet * 8;
        }
        rt.queue.push_back(job);
        ++stats_[id].jobs_released;
        ++stats_[id].processes[p].jobs_released;
        rt.next_release += profile.period;
      }
    }
  }
}

Time Hypervisor::service(PartitionId id, Time from, Time to) {
  PartitionRt& rt = state_[id];
  PartitionStats& st = stats_[id];
  const auto& processes = procs_[id];
  Time now = from;

  while (now < to && rt.state == PartitionState::kNormal) {
    // Fixed-priority pick among processes with a released job (ties: lower
    // index — declaration order).
    std::size_t pick = SIZE_MAX;
    for (std::size_t p = 0; p < processes.size(); ++p) {
      const ProcessRt& prt = rt.processes[p];
      if (prt.queue.empty() || prt.queue.front().release > now) continue;
      if (pick == SIZE_MAX ||
          processes[p].priority > processes[pick].priority) {
        pick = p;
      }
    }
    if (pick == SIZE_MAX) {
      // Idle until the earliest pending release inside this slot.
      Time next = to;
      for (const ProcessRt& prt : rt.processes) {
        if (!prt.queue.empty()) {
          next = std::min(next, prt.queue.front().release);
        }
      }
      if (next >= to) break;
      now = next;
      continue;
    }

    // Preemption accounting: a different process takes over while the
    // previously running one still holds a started, unfinished job.
    if (rt.last_running != SIZE_MAX && rt.last_running != pick &&
        rt.last_running < rt.processes.size()) {
      const ProcessRt& prev = rt.processes[rt.last_running];
      if (!prev.queue.empty() && prev.queue.front().started &&
          prev.queue.front().remaining > 0) {
        ++st.processes[rt.last_running].preemptions;
      }
    }
    rt.last_running = pick;

    Job& job = rt.processes[pick].queue.front();
    if (!job.started) {
      job.started = true;
      job.first_service = now;
      st.max_jitter = std::max(st.max_jitter, now - job.release);
    }
    // Run until completion, the slot end, or the next release of a
    // strictly-higher-priority process (the preemption point).
    Time horizon = to;
    for (std::size_t q = 0; q < processes.size(); ++q) {
      if (q == pick || rt.processes[q].queue.empty()) continue;
      const Job& other = rt.processes[q].queue.front();
      if (other.release > now &&
          processes[q].priority > processes[pick].priority) {
        horizon = std::min(horizon, other.release);
      }
    }
    Time slice = std::min<Time>(horizon - now, job.remaining);
    if (!job.overrun_raised && job.consumed < job.budget) {
      // The budget timer: a job is never run past its declared WCET without
      // control returning to the monitor first.
      slice = std::min<Time>(slice, job.budget - job.consumed);
    }
    job.remaining -= slice;
    job.consumed += slice;
    now += slice;
    st.cpu_time += slice;
    st.processes[pick].cpu_time += slice;

    if (!job.overrun_raised && job.consumed >= job.budget &&
        job.remaining > 0) {
      // The job spent its whole declared WCET and still wants more — only
      // possible when a fault inflated its demand. Raise kBudgetOverrun;
      // the configured HM action decides what happens to the partition.
      job.overrun_raised = true;
      ++st.budget_overruns;
      hm_raise(id, HmEvent::kBudgetOverrun, now);
      if (rt.state != PartitionState::kNormal ||
          rt.processes[pick].queue.empty()) {
        break;  // HM suspended/halted/restarted the partition
      }
    }

    if (job.remaining == 0) {
      // Completion: run the functional payload, check the deadline.
      st.max_response = std::max(st.max_response, now - job.release);
      st.processes[pick].max_response =
          std::max(st.processes[pick].max_response, now - job.release);
      if (now > job.deadline) {
        ++st.deadline_misses;
        ++st.processes[pick].deadline_misses;
        hm_raise(id, HmEvent::kDeadlineMiss, now);
      }
      ++st.jobs_completed;
      ++st.processes[pick].jobs_completed;
      if (processes[pick].on_job) {
        PartitionApi api(*this, id, now);
        processes[pick].on_job(api);
      }
      if (injector_ && injector_->should_fire(pt_crash_)) {
        // Fault: the partition crashes at this job boundary.
        hm_raise(id, HmEvent::kPartitionError, now);
      }
      // The job callback may have fired an HM action that suspended, halted
      // or restarted this partition (restart clears the queues), so re-check
      // before consuming the completed job.
      if (rt.state == PartitionState::kNormal &&
          !rt.processes[pick].queue.empty()) {
        rt.processes[pick].queue.pop_front();
      } else {
        break;
      }
    }
  }
  return now - from;
}

Result<RunStats> Hypervisor::run(Time duration) {
  Status valid = validate();
  if (!valid.ok()) return valid;

  for (PartitionId id = 0; id < state_.size(); ++id) {
    state_[id].state = PartitionState::kNormal;
    state_[id].processes.assign(procs_[id].size(), {});
    state_[id].last_running = SIZE_MAX;
    state_[id].restarts = 0;
    state_[id].escalated = false;
    stats_[id] = {};
    stats_[id].processes.resize(procs_[id].size());
  }
  hm_log_.clear();
  context_switches_ = 0;
  for (Time& busy : busy_) busy = 0;
  active_plan_ = 0;
  pending_plan_ = 0;
  plan_switches_ = 0;

  // Build the per-core slot timelines and walk major frames.
  PartitionId previous_on_core[kNumCores];
  for (auto& prev : previous_on_core) prev = kNoPartition;

  Time frame_base = 0;
  std::uint64_t frames = 0;
  while (frame_base < duration) {
    // Apply a latched mode change at the frame boundary.
    if (pending_plan_ != active_plan_) {
      active_plan_ = pending_plan_;
      ++plan_switches_;
    }
    const CyclicPlan& active = plan(active_plan_);
    const Time maf = active.major_frame;
    ++frames;
    // Release every job up front for this frame (fine granularity is not
    // needed: releases are aligned to periods which divide typical frames).
    release_jobs(std::min(frame_base + maf, duration));

    // Gather slot segments of this frame across cores, sorted by start.
    struct Segment {
      Time start, end;
      unsigned core;
      PartitionId partition;
    };
    std::vector<Segment> segments;
    for (unsigned core = 0; core < active.per_core.size(); ++core) {
      for (const Slot& slot : active.per_core[core]) {
        if (slot.partition == kNoPartition) continue;
        const Time start = frame_base + slot.start;
        const Time end = std::min<Time>(start + slot.duration, duration);
        if (start >= duration || end <= start) continue;
        segments.push_back({start, end, core, slot.partition});
      }
    }
    std::sort(segments.begin(), segments.end(),
              [](const Segment& a, const Segment& b) {
                return a.start < b.start;
              });

    for (const Segment& segment : segments) {
      Time start = segment.start;
      if (previous_on_core[segment.core] != segment.partition) {
        ++context_switches_;
        start = std::min(segment.end, start + config_.context_switch_cost);
        previous_on_core[segment.core] = segment.partition;
      }
      if (state_[segment.partition].state != PartitionState::kNormal) continue;
      const Time used = service(segment.partition, start, segment.end);
      busy_[segment.core] += used;
    }
    frame_base += maf;
  }

  // Detect jobs that missed their deadline without ever completing.
  for (PartitionId id = 0; id < state_.size(); ++id) {
    for (std::size_t p = 0; p < state_[id].processes.size(); ++p) {
      for (const Job& job : state_[id].processes[p].queue) {
        if (job.deadline <= duration) {
          ++stats_[id].deadline_misses;
          ++stats_[id].processes[p].deadline_misses;
        }
      }
    }
    stats_[id].final_state = state_[id].state;
  }

  RunStats run_stats;
  run_stats.simulated = duration;
  run_stats.context_switches = context_switches_;
  run_stats.major_frames = frames;
  run_stats.plan_switches = plan_switches_;
  run_stats.final_plan = active_plan_;
  run_stats.partitions = stats_;
  run_stats.hm_log = hm_log_;
  run_stats.port_messages = ports_.total_messages();
  for (unsigned core = 0; core < kNumCores; ++core) {
    run_stats.core_utilization[core] =
        duration ? static_cast<double>(busy_[core]) / duration : 0.0;
  }
  return run_stats;
}

}  // namespace hermes::hv
