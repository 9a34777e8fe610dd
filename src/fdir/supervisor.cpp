#include "fdir/supervisor.hpp"

#include <sstream>

#include "common/fnv.hpp"
#include "common/strings.hpp"

namespace hermes::fdir {

std::uint64_t FdirReport::fingerprint() const {
  std::uint64_t hash = fnv::kOffsetBasis;
  const auto mix = [&hash](std::uint64_t value) {
    hash = fnv::mix_word(hash, value);
  };
  mix(events_consumed);
  mix(events_dropped);
  for (const std::uint64_t count : per_layer) mix(count);
  mix(actions.size());
  for (const FdirActionRecord& action : actions) {
    mix(action.stamp);
    for (const char* c = action.rule; *c; ++c) {
      mix(static_cast<std::uint64_t>(*c));
    }
    mix(static_cast<std::uint64_t>(action.action));
    mix(static_cast<std::uint64_t>(action.layer));
    mix(action.detail);
    mix(action.checkpoint_id);
    mix(action.ok ? 1 : 0);
  }
  mix(checkpoints_taken);
  mix(checkpoints_refused);
  mix(restarts);
  mix(rollbacks);
  mix(quarantines);
  mix(suspensions);
  mix(fences);
  mix(sheds);
  mix(safe_mode_entries);
  mix(suppressed);
  mix(static_cast<std::uint64_t>(final_mode));
  return hash;
}

std::string FdirReport::render() const {
  std::ostringstream out;
  out << "=== FDIR report ===\n";
  out << format("  events %llu consumed, %llu dropped\n",
                static_cast<unsigned long long>(events_consumed),
                static_cast<unsigned long long>(events_dropped));
  for (std::size_t layer = 0; layer < kNumLayers; ++layer) {
    if (per_layer[layer] == 0) continue;
    out << format("    %-10s %llu\n", to_string(static_cast<Layer>(layer)),
                  static_cast<unsigned long long>(per_layer[layer]));
  }
  for (const FdirActionRecord& action : actions) {
    out << format("  [%s] %s (%s layer, detail %u, stamp %llu",
                  action.ok ? "OK" : "FAIL", to_string(action.action),
                  to_string(action.layer), action.detail,
                  static_cast<unsigned long long>(action.stamp));
    if (action.checkpoint_id != ~0ULL) {
      out << format(", checkpoint %llu",
                    static_cast<unsigned long long>(action.checkpoint_id));
    }
    out << format(") via %s\n", action.rule);
  }
  out << format(
      "  checkpoints %llu taken / %llu refused; restarts %llu; rollbacks "
      "%llu; quarantines %llu; suspensions %llu; fences %llu; sheds %llu; "
      "safe-mode entries %llu; suppressed %llu; final mode %s\n",
      static_cast<unsigned long long>(checkpoints_taken),
      static_cast<unsigned long long>(checkpoints_refused),
      static_cast<unsigned long long>(restarts),
      static_cast<unsigned long long>(rollbacks),
      static_cast<unsigned long long>(quarantines),
      static_cast<unsigned long long>(suspensions),
      static_cast<unsigned long long>(fences),
      static_cast<unsigned long long>(sheds),
      static_cast<unsigned long long>(safe_mode_entries),
      static_cast<unsigned long long>(suppressed), to_string(final_mode));
  return out.str();
}

FdirSupervisor::FdirSupervisor(FdirConfig config, FdirBus& bus)
    : config_(config),
      bus_(bus),
      policy_(config.policy),
      checkpoints_(config.checkpoint_ring) {}

void FdirSupervisor::attach_soc(boot::Soc* soc, fault::FaultInjector* injector,
                                fault::FaultPlan base_plan) {
  soc_ = soc;
  injector_ = injector;
  base_plan_ = std::move(base_plan);
  if (soc_) {
    soc_->attach_fdir(&bus_);
    reference_digest_ = soc_->efpga_config_digest();
    have_reference_ = true;
    checkpoints_.set_reference_digest(reference_digest_);
  }
}

void FdirSupervisor::attach_hypervisor(hv::Hypervisor* hv,
                                       hv::PartitionId system_partition) {
  hv_ = hv;
  system_partition_ = system_partition;
  if (hv_) hv_->attach_fdir(&bus_);
}

Status FdirSupervisor::checkpoint() {
  if (!soc_) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "no SoC attached to checkpoint");
  }
  const Status status = checkpoints_.take(*soc_);
  if (status.ok()) {
    ++report_.checkpoints_taken;
  } else {
    ++report_.checkpoints_refused;
  }
  return status;
}

std::size_t FdirSupervisor::poll() {
  const std::vector<FdirEvent> events = bus_.drain();
  for (const FdirEvent& event : events) {
    ++report_.events_consumed;
    ++report_.per_layer[static_cast<std::size_t>(event.layer)];
    for (const Decision& decision : policy_.observe(event)) {
      execute(decision);
    }
  }
  report_.events_dropped = bus_.dropped();
  report_.final_mode = mode_;
  return events.size();
}

void FdirSupervisor::record(const Decision& decision,
                            std::uint64_t checkpoint_id, bool ok) {
  report_.actions.push_back({decision.stamp, decision.rule, decision.action,
                             decision.layer, decision.detail, checkpoint_id,
                             ok});
}

void FdirSupervisor::enter_degraded() {
  if (mode_ == FdirMode::kNominal) mode_ = FdirMode::kDegraded;
}

void FdirSupervisor::enter_safe_mode() {
  if (mode_ == FdirMode::kSafe) return;
  mode_ = FdirMode::kSafe;
  efpga_quarantined_ = true;  // safe mode parks the accelerator too
  ++report_.safe_mode_entries;
}

bool FdirSupervisor::try_restart() {
  if (!soc_) return false;
  // In-place restart: one scrub pass heals correctable rot and re-programs
  // uncorrectable frames from the retained source; the state is good again
  // iff the digest re-verifies and nothing slipped through silently.
  (void)soc_->scrub_efpga();
  if (soc_->efpga_stats().scrub_silent != 0) return false;
  return !have_reference_ ||
         soc_->efpga_config_digest() == reference_digest_;
}

bool FdirSupervisor::try_rollback(std::uint64_t* restored_id) {
  if (!soc_) return false;
  while (const Checkpoint* candidate = checkpoints_.newest()) {
    boot::Soc restored =
        injector_ ? boot::Soc::fork(candidate->snapshot, *injector_,
                                    base_plan_,
                                    config_.rollback_seed_base +
                                        report_.rollbacks)
                  : boot::Soc::fork(candidate->snapshot);
    // Trust but verify: the restore target must decode to exactly the
    // digest recorded at take time. A torn or rotten checkpoint is dropped
    // and the next older one tried.
    if (restored.efpga_stats().scrub_silent == 0 &&
        restored.efpga_config_digest() == candidate->digest) {
      *restored_id = candidate->id;
      *soc_ = std::move(restored);
      soc_->attach_fdir(&bus_);  // snapshots never carry the wiring
      ++report_.rollbacks;
      return true;
    }
    checkpoints_.drop_newest();
  }
  return false;
}

void FdirSupervisor::execute(const Decision& decision) {
  // Safe mode is terminal: the system is parked, nothing left to isolate.
  if (mode_ == FdirMode::kSafe) {
    ++report_.suppressed;
    return;
  }
  switch (decision.action) {
    case IsolationAction::kNone:
      break;
    case IsolationAction::kQuarantineAccelerator: {
      if (efpga_quarantined_) {
        ++report_.suppressed;
        break;
      }
      efpga_quarantined_ = true;
      ++report_.quarantines;
      enter_degraded();
      record(decision, ~0ULL, true);
      break;
    }
    case IsolationAction::kSuspendPartition: {
      if (!hv_ || system_partition_ == hv::kNoPartition ||
          decision.detail == system_partition_ ||
          suspended_partitions_.count(decision.detail) != 0) {
        ++report_.suppressed;
        break;
      }
      // Isolation goes through the front door: a hypercall issued with the
      // system partition's privilege, subject to the same checks any guest
      // faces.
      hv::PartitionApi api(*hv_, system_partition_,
                           static_cast<hv::Time>(decision.stamp));
      const Status status =
          api.suspend_partition(static_cast<hv::PartitionId>(decision.detail));
      if (status.ok()) {
        suspended_partitions_.insert(decision.detail);
        ++report_.suspensions;
        enter_degraded();
      }
      record(decision, ~0ULL, status.ok());
      break;
    }
    case IsolationAction::kFenceMemory: {
      if (fenced_ || !soc_) {
        ++report_.suppressed;
        break;
      }
      // Write-fence the DDR: the MPU scans regions in order and takes the
      // first hit, so a read-only region prepended ahead of the boot-time
      // map fences writes without disturbing reads. With the MPU off, a
      // permit-all region is appended first so only the fence changes
      // behavior.
      if (!soc_->mpu_enabled) {
        soc_->mpu.push_back({0, ~0ULL, true});
        soc_->mpu_enabled = true;
      }
      soc_->mpu.insert(soc_->mpu.begin(),
                       {boot::MemoryMap::kDdrBase, soc_->ddr_size(), false});
      fenced_ = true;
      ++report_.fences;
      enter_degraded();
      record(decision, ~0ULL, true);
      break;
    }
    case IsolationAction::kShedDataflow: {
      if (mode_ != FdirMode::kNominal) {
        ++report_.suppressed;
        break;
      }
      ++report_.sheds;
      enter_degraded();
      record(decision, ~0ULL, true);
      break;
    }
    case IsolationAction::kRollback: {
      if (recovering_) {
        ++report_.suppressed;
        break;
      }
      recovering_ = true;
      checkpoints_.set_recovering(true);
      bool recovered = false;
      std::uint64_t checkpoint_id = ~0ULL;
      // Rung 1: restart in place (scrub + re-verify) — cheapest.
      for (unsigned attempt = 0;
           attempt < config_.max_restart_attempts && !recovered; ++attempt) {
        ++report_.restarts;
        recovered = try_restart();
      }
      // Rung 2: rollback to the newest verifiable checkpoint.
      if (!recovered && report_.rollbacks <
                            static_cast<std::uint64_t>(config_.max_rollbacks)) {
        recovered = try_rollback(&checkpoint_id);
      }
      // Rung 3: safe mode — recovery is out of moves.
      if (recovered) {
        enter_degraded();
      } else {
        enter_safe_mode();
      }
      record(decision, checkpoint_id, recovered);
      checkpoints_.set_recovering(false);
      recovering_ = false;
      break;
    }
  }
  report_.final_mode = mode_;
}

}  // namespace hermes::fdir
