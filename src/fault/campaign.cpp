#include "fault/campaign.hpp"

#include <algorithm>
#include <mutex>

#include "common/fnv.hpp"
#include "fault/seu.hpp"
#include "hw/sim.hpp"
#include "hw/sim_sliced.hpp"

namespace hermes::fault {

namespace {

struct RegisterUpset {
  hw::WireId target = hw::kNoWire;
  unsigned bit = 0;
};

/// The one place the campaign Rng is consumed: target register, then bit.
/// Shared by the serial and sliced runners so the draw sequence cannot
/// drift between them.
RegisterUpset draw_register_upset(const hw::Module& module,
                                  const std::vector<hw::WireId>& targets,
                                  Rng& rng) {
  RegisterUpset upset;
  upset.target = targets[rng.next_below(targets.size())];
  upset.bit = static_cast<unsigned>(
      rng.next_below(module.wire_width(upset.target)));
  return upset;
}

/// Checked once, before fan-out, so an unknown name is reported as a Status
/// naming the port instead of the std::out_of_range set_input would throw
/// (which the pool would rethrow on the caller).
Status check_plan_inputs(const hw::Module& module, const NetlistSeuPlan& plan) {
  for (const auto& [name, value] : plan.inputs) {
    const auto& ports = module.ports();
    if (std::none_of(ports.begin(), ports.end(), [&](const hw::Port& port) {
          return port.is_input && port.name == name;
        })) {
      return Status::Error(ErrorCode::kInvalidArgument,
                           "SEU plan drives '" + name +
                               "', which is not an input port of " +
                               module.name());
    }
  }
  return Status::Ok();
}

/// The status of a simulator that rejected the module. Every replica builds
/// its simulator from the same module, so whichever records it, it is the
/// same status.
struct Rejection {
  std::mutex mutex;
  Status status;
  void record(const Status& rejected) {
    std::lock_guard<std::mutex> lock(mutex);
    status = rejected;
  }
};

/// Tallies the replicas of a campaign no simulator rejected; a rejected one
/// carries only its status, never clean-looking default outcomes.
NetlistSeuResult finish(NetlistSeuResult result, const Status& rejected) {
  if (!rejected.ok()) return NetlistSeuResult{{}, 0, rejected};
  for (const NetlistSeuOutcome& outcome : result.per_replica) {
    if (outcome.diverged) ++result.diverged;
  }
  return result;
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t replica) {
  // SplitMix64 over (base, index): decorrelates consecutive replicas far
  // better than base + index, and never depends on thread assignment.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL *
                                    (static_cast<std::uint64_t>(replica) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ScrubCampaignResult run_scrub_campaign(const ScrubCampaignPlan& plan,
                                       ThreadPool* pool) {
  ScrubCampaignResult result;
  result.per_replica.assign(plan.replicas, ScrubReport{});

  const auto run_replica = [&](std::size_t replica) {
    ScrubMemory memory(plan.memory_words, plan.protection);
    for (std::size_t i = 0; i < memory.size(); ++i) {
      memory.write(i, static_cast<std::uint32_t>(i * 2654435761u));
    }
    Rng rng(replica_seed(plan.base_seed, replica));
    ScrubReport sum;
    for (unsigned interval = 0; interval < plan.intervals; ++interval) {
      sum.accumulate(memory.inject_and_scrub(plan.seu, rng));
    }
    result.per_replica[replica] = sum;
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(plan.replicas, run_replica);

  for (const ScrubReport& report : result.per_replica) {
    result.total.accumulate(report);
  }
  return result;
}

NetlistSeuResult run_netlist_seu_campaign(const hw::Module& module,
                                          const NetlistSeuPlan& plan,
                                          ThreadPool* pool,
                                          const hw::SimOptions& sim) {
  if (Status inputs = check_plan_inputs(module, plan); !inputs.ok()) {
    return NetlistSeuResult{{}, 0, inputs};
  }
  NetlistSeuResult result;
  result.per_replica.assign(plan.replicas, NetlistSeuOutcome{});
  Rejection rejection;

  const auto run_replica = [&](std::size_t replica) {
    hw::Simulator golden(module, sim);
    hw::Simulator faulty(module, sim);
    if (!golden.status().ok()) return rejection.record(golden.status());
    if (!faulty.status().ok()) return rejection.record(faulty.status());
    for (const auto& [port, value] : plan.inputs) {
      golden.set_input(port, value);
      faulty.set_input(port, value);
    }
    for (std::uint64_t c = 0; c < plan.cycles_before; ++c) {
      golden.step();
      faulty.step();
    }

    const std::vector<hw::WireId> targets = golden.register_outputs();
    NetlistSeuOutcome outcome;
    if (targets.empty()) {
      result.per_replica[replica] = outcome;
      return;
    }
    Rng rng(replica_seed(plan.base_seed, replica));
    const RegisterUpset upset = draw_register_upset(module, targets, rng);
    outcome.target = upset.target;
    outcome.bit = upset.bit;
    faulty.corrupt_wire(outcome.target, outcome.bit);

    const std::vector<hw::Port>& ports = module.ports();
    for (std::uint64_t c = 0; c < plan.cycles_after; ++c) {
      golden.step();
      faulty.step();
      bool mismatch = false;
      for (hw::WireId reg : targets) {
        if (golden.get(reg) != faulty.get(reg)) { mismatch = true; break; }
      }
      if (!mismatch) {
        for (const hw::Port& port : ports) {
          if (!port.is_input &&
              golden.get(port.wire) != faulty.get(port.wire)) {
            mismatch = true;
            break;
          }
        }
      }
      if (mismatch && !outcome.diverged) {
        outcome.diverged = true;
        outcome.first_divergence_cycle = c;
      }
    }
    result.per_replica[replica] = outcome;
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(plan.replicas, run_replica);
  return finish(std::move(result), rejection.status);
}

NetlistSeuResult run_netlist_seu_campaign_sliced(const hw::Module& module,
                                                 const NetlistSeuPlan& plan,
                                                 ThreadPool* pool) {
  if (Status inputs = check_plan_inputs(module, plan); !inputs.ok()) {
    return NetlistSeuResult{{}, 0, inputs};
  }
  NetlistSeuResult result;
  result.per_replica.assign(plan.replicas, NetlistSeuOutcome{});
  Rejection rejection;

  const auto run_batch = [&](std::size_t batch) {
    hw::SlicedSimulator sim(module);
    if (!sim.status().ok()) return rejection.record(sim.status());
    for (const auto& [port, value] : plan.inputs) {
      sim.set_input(port, value);
    }
    for (std::uint64_t c = 0; c < plan.cycles_before; ++c) sim.step();

    const std::vector<hw::WireId> targets = sim.register_outputs();
    if (targets.empty()) return;  // default outcomes, same as the serial path

    // Lanes 1..63 carry consecutive plan replicas; the final batch may be
    // partial. Lane 0 stays fault-free — it is the golden replica every
    // lane_divergence() call compares against.
    const std::size_t first = batch * kReplicasPerBatch;
    const std::size_t last =
        std::min(first + kReplicasPerBatch, plan.replicas);
    std::uint64_t batch_lanes = 0;
    for (std::size_t replica = first; replica < last; ++replica) {
      Rng rng(replica_seed(plan.base_seed, replica));
      const RegisterUpset upset = draw_register_upset(module, targets, rng);
      NetlistSeuOutcome& outcome = result.per_replica[replica];
      outcome.target = upset.target;
      outcome.bit = upset.bit;
      sim.corrupt_wire(upset.target, upset.bit, 1ULL << lane_of(replica));
      batch_lanes |= 1ULL << lane_of(replica);
    }

    const std::vector<hw::Port>& ports = module.ports();
    std::uint64_t diverged = 0;
    for (std::uint64_t c = 0; c < plan.cycles_after; ++c) {
      sim.step();
      // A replica mismatches when any watched register or output port
      // differs from golden — the OR over lane_divergence is exactly the
      // serial runner's short-circuit scan, evaluated for 63 replicas at
      // once.
      std::uint64_t mask = 0;
      for (hw::WireId reg : targets) mask |= sim.lane_divergence(reg);
      for (const hw::Port& port : ports) {
        if (!port.is_input) mask |= sim.lane_divergence(port.wire);
      }
      mask &= batch_lanes;
      std::uint64_t newly = mask & ~diverged;
      while (newly != 0) {
        const unsigned lane =
            static_cast<unsigned>(__builtin_ctzll(newly));
        newly &= newly - 1;
        NetlistSeuOutcome& outcome =
            result.per_replica[replica_at(batch, lane)];
        outcome.diverged = true;
        outcome.first_divergence_cycle = c;
      }
      diverged |= mask;
      // Once every replica in the batch has diverged nothing can change the
      // outcome vector; the remaining cycles are unobservable.
      if (diverged == batch_lanes) break;
    }
  };
  if (pool == nullptr) pool = &ThreadPool::global();
  pool->parallel_for(batch_count(plan.replicas), run_batch);
  return finish(std::move(result), rejection.status);
}

std::uint64_t fingerprint(const NetlistSeuResult& result) {
  std::uint64_t hash = fnv::kOffsetBasis;
  const auto mix = [&hash](std::uint64_t value) {
    hash = fnv::mix_le64(hash, value);
  };
  mix(result.per_replica.size());
  for (const NetlistSeuOutcome& outcome : result.per_replica) {
    mix(outcome.target);
    mix(outcome.bit);
    mix(outcome.diverged ? 1 : 0);
    mix(outcome.first_divergence_cycle);
  }
  mix(result.diverged);
  return hash;
}

}  // namespace hermes::fault
