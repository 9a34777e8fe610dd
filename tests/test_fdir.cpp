// Tests for the cross-layer FDIR supervisor: the bounded event bus, the
// isolation policy engine, the checkpoint ring, every layer's event
// publication hook, and the end-to-end detect → isolate → recover pipeline
// (quarantine on escalation exhaustion, checkpoint rollback on repeated
// uncorrectable faults, safe mode when the ladder runs out of moves).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "axi/master.hpp"
#include "axi/slave_memory.hpp"
#include "boot/bl.hpp"
#include "dataflow/taskgraph.hpp"
#include "fault/injector.hpp"
#include "fault/scrub_memory.hpp"
#include "fdir/supervisor.hpp"
#include "hv/hypervisor.hpp"
#include "nxmap/bitstream.hpp"

namespace hermes::fdir {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// A three-frame image; another `salt` gives another configuration.
std::vector<std::uint8_t> test_bitstream(std::uint32_t salt = 0xC3) {
  std::vector<nx::BitstreamFrame> frames(3);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].column = static_cast<std::uint32_t>(2 * f);
    for (std::size_t w = 0; w < 6 + f * 3; ++w) {
      frames[f].words.push_back(
          static_cast<std::uint32_t>((f << 24) ^ (w * 0x01000193u) ^ salt));
    }
  }
  return nx::pack_raw_bitstream(/*device_id=*/0xE0E0, frames);
}

/// Boots a full chain with an eFPGA bitstream in the load list, yielding a
/// programmed SoC for checkpoint/rollback scenarios.
void boot_programmed(boot::BootEnvironment& env) {
  std::vector<std::uint8_t> bl1(1024);
  for (std::size_t i = 0; i < bl1.size(); ++i) {
    bl1[i] = static_cast<std::uint8_t>(i * 11 + 3);
  }
  boot::LoadList list;
  boot::LoadEntry fpga;
  fpga.kind = boot::LoadKind::kBitstream;
  fpga.name = "matrix";
  fpga.dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
  list.entries.push_back(fpga);
  boot::LoadEntry app;
  app.kind = boot::LoadKind::kBl2;
  app.name = "app";
  app.dest_addr = boot::MemoryMap::kDdrBase;
  list.entries.push_back(app);
  std::vector<std::vector<std::uint8_t>> images = {
      test_bitstream(), std::vector<std::uint8_t>(2048, 0x5A)};
  boot::stage_boot_media(env, bl1, list, images);
  ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
  ASSERT_TRUE(env.soc.efpga_programmed);
}

FdirEvent make_event(Layer layer, Severity severity,
                     std::uint32_t detail = 0, std::uint64_t stamp = 0) {
  return {layer, severity, ErrorCode::kIntegrityError, detail, stamp};
}

// ---------------------------------------------------------------------------
// FdirBus
// ---------------------------------------------------------------------------

TEST(FdirBus, PreservesArrivalOrder) {
  FdirBus bus(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    bus.publish(make_event(Layer::kAxi, Severity::kInfo, i, 100 + i));
  }
  EXPECT_EQ(bus.size(), 5u);
  const std::vector<FdirEvent> events = bus.drain();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].detail, i);
    EXPECT_EQ(events[i].stamp, 100u + i);
  }
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_TRUE(bus.drain().empty());
}

TEST(FdirBus, BoundedOverflowDropsAndCounts) {
  FdirBus bus(4);
  EXPECT_EQ(bus.capacity(), 4u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    bus.publish(make_event(Layer::kMemory, Severity::kCorrected, i));
  }
  // The first `capacity` events survive in order; the overflow is counted,
  // never silently lost.
  EXPECT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.published(), 4u);
  EXPECT_EQ(bus.dropped(), 3u);
  const std::vector<FdirEvent> events = bus.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().detail, 0u);
  EXPECT_EQ(events.back().detail, 3u);
  // Draining frees capacity again.
  bus.publish(make_event(Layer::kMemory, Severity::kCorrected, 9));
  EXPECT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.dropped(), 3u);
}

// ---------------------------------------------------------------------------
// PolicyEngine
// ---------------------------------------------------------------------------

TEST(Policy, EscalationExhaustedIsolatesImmediately) {
  PolicyEngine policy;
  const auto decisions =
      policy.observe(make_event(Layer::kEfpga, Severity::kExhausted, 2, 77));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, IsolationAction::kQuarantineAccelerator);
  EXPECT_STREQ(decisions[0].rule, "escalation-exhausted");
  EXPECT_EQ(decisions[0].layer, Layer::kEfpga);
  EXPECT_EQ(decisions[0].detail, 2u);
  EXPECT_EQ(decisions[0].stamp, 77u);
}

TEST(Policy, IsolationTargetsMatchTheFailingLayer) {
  PolicyEngine policy;
  const auto act = [&policy](Layer layer) {
    const auto decisions =
        policy.observe(make_event(layer, Severity::kExhausted));
    return decisions.empty() ? IsolationAction::kNone : decisions[0].action;
  };
  EXPECT_EQ(act(Layer::kEfpga), IsolationAction::kQuarantineAccelerator);
  EXPECT_EQ(act(Layer::kBoot), IsolationAction::kQuarantineAccelerator);
  EXPECT_EQ(act(Layer::kHypervisor), IsolationAction::kSuspendPartition);
  EXPECT_EQ(act(Layer::kAxi), IsolationAction::kFenceMemory);
  EXPECT_EQ(act(Layer::kMemory), IsolationAction::kFenceMemory);
  EXPECT_EQ(act(Layer::kDataflow), IsolationAction::kShedDataflow);
  // The supervisor's own layer never isolates anything — no feedback loop.
  EXPECT_EQ(act(Layer::kSupervisor), IsolationAction::kNone);
}

TEST(Policy, RepeatedUncorrectableTriggersRollbackThenRearms) {
  PolicyConfig config;
  config.uncorrectable_threshold = 2;
  PolicyEngine policy(config);
  EXPECT_TRUE(
      policy.observe(make_event(Layer::kMemory, Severity::kUncorrectable))
          .empty());
  auto decisions =
      policy.observe(make_event(Layer::kMemory, Severity::kUncorrectable));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, IsolationAction::kRollback);
  EXPECT_STREQ(decisions[0].rule, "repeated-uncorrectable");
  // The window cleared on trigger: one more uncorrectable does not re-fire;
  // it takes a full threshold's worth again.
  EXPECT_TRUE(
      policy.observe(make_event(Layer::kMemory, Severity::kUncorrectable))
          .empty());
  decisions =
      policy.observe(make_event(Layer::kMemory, Severity::kUncorrectable));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, IsolationAction::kRollback);
}

TEST(Policy, UncorrectableWindowExpiresOldEntries) {
  PolicyConfig config;
  config.window = 4;
  config.uncorrectable_threshold = 2;
  config.rate_threshold = 100;  // keep the rate rule out of this test
  PolicyEngine policy(config);
  EXPECT_TRUE(
      policy.observe(make_event(Layer::kAxi, Severity::kUncorrectable))
          .empty());
  // Four unrelated arrivals push the first entry out of the window.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        policy.observe(make_event(Layer::kDataflow, Severity::kInfo)).empty());
  }
  // This uncorrectable is alone in the (expired) window: no rollback.
  EXPECT_TRUE(
      policy.observe(make_event(Layer::kAxi, Severity::kUncorrectable))
          .empty());
}

TEST(Policy, RateOverWindowIsolatesTheStormingLayer) {
  PolicyConfig config;
  config.window = 16;
  config.rate_threshold = 4;
  config.uncorrectable_threshold = 100;
  PolicyEngine policy(config);
  std::vector<Decision> decisions;
  for (int i = 0; i < 4; ++i) {
    decisions = policy.observe(make_event(Layer::kDataflow, Severity::kRetried));
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].action, IsolationAction::kShedDataflow);
  EXPECT_STREQ(decisions[0].rule, "rate-over-window");
  // Cleared on trigger: the next event alone does not re-fire.
  EXPECT_TRUE(
      policy.observe(make_event(Layer::kDataflow, Severity::kRetried)).empty());
}

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

TEST(Checkpoints, TakeDuringRecoveryRefusesCleanly) {
  boot::BootEnvironment env;
  boot_programmed(env);
  CheckpointManager manager(2);

  // Property (satellite): a checkpoint attempted mid-recovery must refuse
  // cleanly — counted, ring untouched — never freeze a torn state.
  manager.set_recovering(true);
  const Status refused = manager.take(env.soc);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(manager.empty());
  EXPECT_EQ(manager.stats().refused, 1u);
  EXPECT_EQ(manager.stats().taken, 0u);

  // Recovery over: the same SoC checkpoints fine, and the entry restores
  // digest-identical.
  manager.set_recovering(false);
  ASSERT_TRUE(manager.take(env.soc).ok());
  ASSERT_NE(manager.newest(), nullptr);
  const boot::Soc restored = boot::Soc::fork(manager.newest()->snapshot);
  EXPECT_EQ(restored.efpga_config_digest(), manager.newest()->digest);
  EXPECT_EQ(restored.efpga_config_digest(), env.soc.efpga_config_digest());
}

TEST(Checkpoints, ReferenceDigestMismatchRefuses) {
  boot::BootEnvironment env;
  boot_programmed(env);
  CheckpointManager manager(2);
  manager.set_reference_digest(env.soc.efpga_config_digest() ^ 1);
  const Status refused = manager.take(env.soc);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kIntegrityError);
  EXPECT_TRUE(manager.empty());
  manager.set_reference_digest(env.soc.efpga_config_digest());
  EXPECT_TRUE(manager.take(env.soc).ok());
}

TEST(Checkpoints, RingEvictsOldestAndDropsNewest) {
  boot::BootEnvironment env;
  boot_programmed(env);
  CheckpointManager manager(2);
  ASSERT_TRUE(manager.take(env.soc).ok());  // id 0
  ASSERT_TRUE(manager.take(env.soc).ok());  // id 1
  ASSERT_TRUE(manager.take(env.soc).ok());  // id 2, evicts id 0
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.stats().evicted, 1u);
  ASSERT_NE(manager.newest(), nullptr);
  EXPECT_EQ(manager.newest()->id, 2u);
  manager.drop_newest();
  ASSERT_NE(manager.newest(), nullptr);
  EXPECT_EQ(manager.newest()->id, 1u);
  EXPECT_EQ(manager.stats().dropped, 1u);
  manager.drop_newest();
  EXPECT_TRUE(manager.empty());
  EXPECT_EQ(manager.newest(), nullptr);
}

/// Property sweep (satellite): under injected configuration rot, take() either
/// refuses cleanly (the state can no longer be proven clean) or the taken
/// checkpoint restores digest-identical to what was recorded. Never a torn
/// restore target.
TEST(Checkpoints, PropertyTakeRefusesOrRestoresDigestIdentical) {
  boot::BootEnvironment env;
  boot_programmed(env);
  const boot::SocSnapshot base = env.soc.snapshot();
  const std::uint64_t clean_digest = env.soc.efpga_config_digest();

  fault::FaultPlan rot;
  rot.points.push_back({"efpga.config.rot", {.probability = 0.8}});

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fault::FaultInjector injector;
    boot::Soc soc = boot::Soc::fork(base, injector, rot, seed);
    CheckpointManager manager(2);
    manager.set_reference_digest(clean_digest);
    for (int pass = 0; pass < 3; ++pass) (void)soc.scrub_efpga();

    const Status status = manager.take(soc);
    if (status.ok()) {
      ASSERT_NE(manager.newest(), nullptr);
      const boot::Soc restored = boot::Soc::fork(manager.newest()->snapshot);
      EXPECT_EQ(restored.efpga_config_digest(), manager.newest()->digest)
          << "seed " << seed;
      EXPECT_EQ(restored.efpga_config_digest(), clean_digest) << "seed " << seed;
    } else {
      // Clean refusal: a typed status, counters bumped, ring untouched.
      EXPECT_TRUE(status.code() == ErrorCode::kIntegrityError ||
                  status.code() == ErrorCode::kInvalidArgument)
          << "seed " << seed << ": " << status.to_string();
      EXPECT_TRUE(manager.empty()) << "seed " << seed;
      EXPECT_EQ(manager.stats().refused, 1u) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite regression: bounded-wait budget exhaustion is a deadline
// ---------------------------------------------------------------------------

TEST(BoundedWaitCodes, EfpgaFrameRewriteBudgetExhaustionIsDeadline) {
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.points.push_back({"efpga.prog.frame.corrupt", {.probability = 1.0}});
  fault::FaultInjector injector(plan);
  boot::Soc soc;
  soc.attach_injector(&injector);
  const Status status = soc.program_efpga(test_bitstream());
  ASSERT_FALSE(status.ok());
  // The rewrite budget is a bounded wait; its exhaustion must surface as
  // kDeadlineExceeded (retriable at the next layer up), not a bare kInternal.
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(is_retriable(status.code()));
  EXPECT_FALSE(soc.efpga_programmed);
  EXPECT_GT(soc.efpga_stats().prog_failures, 0u);
}

TEST(BoundedWaitCodes, EfpgaHeaderRewriteBudgetExhaustionIsDeadline) {
  fault::FaultPlan plan;
  plan.seed = 3;
  plan.points.push_back({"efpga.prog.header.corrupt", {.probability = 1.0}});
  fault::FaultInjector injector(plan);
  boot::Soc soc;
  soc.attach_injector(&injector);
  const Status status = soc.program_efpga(test_bitstream());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(soc.efpga_programmed);
}

// ---------------------------------------------------------------------------
// Per-layer event publication
// ---------------------------------------------------------------------------

TEST(Publishers, ScrubMemoryPublishesCorrectionsAndUncorrectables) {
  FdirBus bus;
  fault::ScrubMemory memory(32, fault::Protection::kEdac);
  memory.attach_event_bus(&bus);
  for (std::size_t i = 0; i < 32; ++i) {
    memory.write(i, static_cast<std::uint32_t>(i * 0x1111));
  }

  // One flipped bit: corrected in place -> one kCorrected event.
  memory.flip_raw_bit(3, 5);
  (void)memory.scrub_range(0, 32);
  auto events = bus.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].layer, Layer::kMemory);
  EXPECT_EQ(events[0].severity, Severity::kCorrected);
  EXPECT_EQ(events[0].detail, 1u);
  EXPECT_EQ(events[0].stamp, 0u);  // first scrub pass

  // Two flipped bits in one word: detected-uncorrectable. Without repair the
  // word stays rotten -> kUncorrectable; with golden repair -> kRetried.
  memory.flip_raw_bit(7, 1);
  memory.flip_raw_bit(7, 9);
  (void)memory.scrub_range(0, 32);
  events = bus.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, Severity::kUncorrectable);
  EXPECT_EQ(events[0].stamp, 1u);
  (void)memory.scrub_range(0, 32, /*repair_uncorrectable=*/true);
  events = bus.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, Severity::kRetried);
  EXPECT_EQ(events[0].code, ErrorCode::kIntegrityError);
}

TEST(Publishers, AxiMasterPublishesRetriesAndExhaustion) {
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.points.push_back({"axi.r.slverr", {.probability = 1.0}});
  fault::FaultInjector injector(plan);
  axi::AxiSlaveMemory slave(4096, axi::MemoryTiming{});
  slave.attach_injector(&injector);
  FdirBus bus;
  axi::MasterConfig config;
  config.max_retries = 2;
  axi::AxiMaster master(slave, config);
  master.attach_fdir(&bus);

  std::uint8_t out[64];
  const Status status = master.read(0, out);
  ASSERT_FALSE(status.ok());
  const auto events = bus.drain();
  // Every retry rung publishes kRetried; the exhausted budget publishes one
  // terminal kExhausted.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].severity, Severity::kRetried);
  EXPECT_EQ(events[1].severity, Severity::kRetried);
  EXPECT_EQ(events[2].severity, Severity::kExhausted);
  for (const FdirEvent& event : events) {
    EXPECT_EQ(event.layer, Layer::kAxi);
  }
  // Stamps carry the master's own cycle counter, monotonically.
  EXPECT_LE(events[0].stamp, events[1].stamp);
  EXPECT_LE(events[1].stamp, events[2].stamp);
}

TEST(Publishers, HypervisorPublishesHealthMonitorVerdicts) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 900, 0, 0}};
  hv::PartitionConfig guest;
  guest.name = "guest";
  guest.region = {0x0000, 0x1000};
  guest.profile = {1000, 0, 300};
  config.partitions = {guest};
  config.restart_budget = 1;
  config.hm_table[hv::HmEvent::kPartitionError] =
      hv::HmAction::kRestartPartition;

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.points.push_back({"hv.partition.crash", {.probability = 1.0}});
  fault::FaultInjector injector(plan);
  hv::Hypervisor hv(config);
  hv.attach_injector(&injector);
  FdirBus bus;
  hv.attach_fdir(&bus);
  ASSERT_TRUE(hv.run(5000).ok());

  const auto events = bus.drain();
  ASSERT_FALSE(events.empty());
  // Crash-loop escalation: restart(s) within the budget publish kRetried,
  // the suspend escalation publishes kExhausted.
  std::uint64_t retried = 0, exhausted = 0;
  for (const FdirEvent& event : events) {
    EXPECT_EQ(event.layer, Layer::kHypervisor);
    EXPECT_EQ(event.detail, 0u);  // partition id
    if (event.severity == Severity::kRetried) ++retried;
    if (event.severity == Severity::kExhausted) ++exhausted;
  }
  EXPECT_EQ(retried, 1u);    // restart_budget = 1
  EXPECT_GE(exhausted, 1u);  // the escalation past the budget
}

TEST(Publishers, DataflowPublishesNodeRetryLadder) {
  fault::FaultPlan plan;
  plan.seed = 4;
  plan.points.push_back({"df.node.transient", {.probability = 1.0,
                                               .max_fires = 2}});
  fault::FaultInjector injector(plan);
  df::TaskGraph graph;
  const std::size_t a = graph.add_task({"a", 2, 0, 2, 10});
  const std::size_t b = graph.add_task({"b", 3, 0, 2, 10});
  graph.connect(a, b);
  graph.sources = {a};
  graph.sinks = {b};

  FdirBus bus;
  df::DataflowOptions options;
  options.injector = &injector;
  options.fdir = &bus;
  options.retry.max_retries = 3;
  ASSERT_TRUE(df::simulate_dataflow(graph, 4, options).ok());

  const auto events = bus.drain();
  ASSERT_EQ(events.size(), 2u);  // max_fires bounds the transient faults
  for (const FdirEvent& event : events) {
    EXPECT_EQ(event.layer, Layer::kDataflow);
    EXPECT_EQ(event.severity, Severity::kRetried);
  }
}

// ---------------------------------------------------------------------------
// Degraded-mode work shedding
// ---------------------------------------------------------------------------

TEST(Shedding, ShedNonCriticalKeepsTheCriticalPipeline) {
  df::TaskGraph graph;
  df::Task src{"src", 1, 0, 2, 10};
  df::Task work{"work", 3, 0, 4, 50};
  df::Task sink{"sink", 2, 0, 2, 10};
  df::Task diag{"diag", 5, 0, 3, 30};
  diag.critical = false;  // best-effort diagnostics branch
  const std::size_t s = graph.add_task(src);
  const std::size_t w = graph.add_task(work);
  const std::size_t k = graph.add_task(sink);
  const std::size_t d = graph.add_task(diag);
  graph.connect(s, w);
  graph.connect(w, k);
  graph.connect(w, d);  // leaf branch: safe to shed
  graph.sources = {s};
  graph.sinks = {k, d};

  const df::TaskGraph degraded = df::shed_non_critical(graph);
  ASSERT_EQ(degraded.tasks.size(), 3u);
  for (const df::Task& task : degraded.tasks) {
    EXPECT_TRUE(task.critical);
  }
  // Channels touching the shed task are gone; indices are remapped densely.
  ASSERT_EQ(degraded.channels.size(), 2u);
  EXPECT_EQ(degraded.sinks.size(), 1u);
  for (const df::Channel& channel : degraded.channels) {
    EXPECT_LT(channel.from, degraded.tasks.size());
    EXPECT_LT(channel.to, degraded.tasks.size());
  }
  // The degraded graph still runs to completion, and cheaper.
  df::DataflowStats full_stats, degraded_stats;
  df::DataflowOptions options;
  options.stats_out = &full_stats;
  ASSERT_TRUE(df::simulate_dataflow(graph, 6, options).ok());
  options.stats_out = &degraded_stats;
  ASSERT_TRUE(df::simulate_dataflow(degraded, 6, options).ok());
  EXPECT_LE(degraded_stats.makespan, full_stats.makespan);
  EXPECT_LT(degraded_stats.controller_states, full_stats.controller_states);
}

TEST(Shedding, AllCriticalGraphIsUnchanged) {
  df::TaskGraph graph;
  const std::size_t a = graph.add_task({"a", 1, 0, 2, 10});
  const std::size_t b = graph.add_task({"b", 2, 0, 2, 10});
  graph.connect(a, b);
  graph.sources = {a};
  graph.sinks = {b};
  const df::TaskGraph same = df::shed_non_critical(graph);
  EXPECT_EQ(same.tasks.size(), 2u);
  EXPECT_EQ(same.channels.size(), 1u);
  EXPECT_EQ(same.sources, graph.sources);
  EXPECT_EQ(same.sinks, graph.sinks);
}

// ---------------------------------------------------------------------------
// Supervisor: isolation actions
// ---------------------------------------------------------------------------

TEST(Supervisor, ExhaustedEfpgaEventQuarantinesTheAccelerator) {
  FdirBus bus;
  FdirSupervisor supervisor({}, bus);
  bus.publish(make_event(Layer::kEfpga, Severity::kExhausted, 1, 50));
  EXPECT_EQ(supervisor.poll(), 1u);
  EXPECT_TRUE(supervisor.efpga_quarantined());
  EXPECT_EQ(supervisor.mode(), FdirMode::kDegraded);
  const FdirReport& report = supervisor.report();
  EXPECT_EQ(report.quarantines, 1u);
  ASSERT_EQ(report.actions.size(), 1u);
  EXPECT_EQ(report.actions[0].action, IsolationAction::kQuarantineAccelerator);
  EXPECT_TRUE(report.actions[0].ok);
  // Idempotent: a second exhaustion is suppressed, not double-counted.
  bus.publish(make_event(Layer::kEfpga, Severity::kExhausted, 1, 60));
  supervisor.poll();
  EXPECT_EQ(supervisor.report().quarantines, 1u);
  EXPECT_GE(supervisor.report().suppressed, 1u);
}

TEST(Supervisor, ExhaustedHypervisorEventSuspendsThePartition) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 400, 0, 0}, {500, 400, 1, 0}};
  hv::PartitionConfig system;
  system.name = "fdir";
  system.region = {0x0000, 0x1000};
  system.system = true;  // the supervisor rides a system partition
  hv::PartitionConfig guest;
  guest.name = "guest";
  guest.region = {0x1000, 0x1000};
  config.partitions = {system, guest};
  hv::Hypervisor hv(config);

  FdirBus bus;
  FdirSupervisor supervisor({}, bus);
  supervisor.attach_hypervisor(&hv, /*system_partition=*/0);

  bus.publish({Layer::kHypervisor, Severity::kExhausted,
               ErrorCode::kDeadlineExceeded, /*detail=*/1, /*stamp=*/400});
  supervisor.poll();
  EXPECT_EQ(hv.partition_state(1), hv::PartitionState::kSuspended);
  EXPECT_EQ(supervisor.report().suspensions, 1u);
  EXPECT_EQ(supervisor.mode(), FdirMode::kDegraded);

  // The system partition itself is never suspended by its own supervisor.
  bus.publish({Layer::kHypervisor, Severity::kExhausted,
               ErrorCode::kDeadlineExceeded, /*detail=*/0, /*stamp=*/500});
  supervisor.poll();
  EXPECT_EQ(hv.partition_state(0), hv::PartitionState::kNormal);
  EXPECT_EQ(supervisor.report().suspensions, 1u);
  EXPECT_GE(supervisor.report().suppressed, 1u);
}

TEST(Supervisor, ExhaustedMemoryEventFencesDdrWrites) {
  boot::BootEnvironment env;
  boot_programmed(env);
  FdirBus bus;
  FdirSupervisor supervisor({}, bus);
  supervisor.attach_soc(&env.soc, nullptr, {});

  const std::uint64_t addr = boot::MemoryMap::kDdrBase + 0x4000;
  const std::uint8_t byte[1] = {0xAB};
  ASSERT_TRUE(env.soc.write_bytes(addr, byte).ok());

  bus.publish(make_event(Layer::kMemory, Severity::kExhausted, 0, 10));
  supervisor.poll();
  EXPECT_TRUE(supervisor.memory_fenced());
  EXPECT_EQ(supervisor.report().fences, 1u);

  // Writes to the fenced DDR now fail cleanly; reads still pass.
  EXPECT_FALSE(env.soc.write_bytes(addr, byte).ok());
  std::uint8_t readback[1] = {0};
  EXPECT_TRUE(env.soc.read_bytes(addr, readback).ok());
  EXPECT_EQ(readback[0], 0xAB);
}

// ---------------------------------------------------------------------------
// Supervisor: the recovery ladder end to end
// ---------------------------------------------------------------------------

/// The acceptance demo: a sustained unrecoverable configuration fault is
/// detected through the event bus, the policy engine orders a rollback, and
/// the supervisor restores the checkpointed SoC digest-identical.
TEST(Supervisor, EndToEndDetectIsolateRollback) {
  boot::BootEnvironment env;
  boot_programmed(env);
  const std::uint64_t clean_digest = env.soc.efpga_config_digest();

  fault::FaultPlan rot;
  rot.seed = 21;
  rot.points.push_back({"efpga.config.rot", {.probability = 1.0}});
  fault::FaultInjector injector(rot);
  env.soc.attach_injector(&injector);

  FdirBus bus(1024);
  FdirConfig config;
  config.max_restart_attempts = 0;  // demo the rollback rung specifically
  config.policy.uncorrectable_threshold = 2;
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, &injector, rot);
  ASSERT_TRUE(supervisor.checkpoint().ok());

  // Pound the configuration until the policy orders a rollback. Every rot
  // strike is detected by the scrub (correct, or re-program the frame) and
  // published; repeated uncorrectables cross the policy threshold.
  for (int pass = 0; pass < 32 && supervisor.report().rollbacks == 0; ++pass) {
    (void)env.soc.scrub_efpga();
    supervisor.poll();
  }

  const FdirReport& report = supervisor.report();
  ASSERT_EQ(report.rollbacks, 1u) << report.render();
  EXPECT_EQ(supervisor.mode(), FdirMode::kDegraded);
  // Recover: the restored SoC is digest-identical to the checkpoint.
  EXPECT_EQ(env.soc.efpga_config_digest(), clean_digest);
  EXPECT_EQ(env.soc.efpga_stats().scrub_silent, 0u);
  // Audit: the rollback action names its rule and restore target.
  bool found = false;
  for (const FdirActionRecord& action : report.actions) {
    if (action.action != IsolationAction::kRollback) continue;
    found = true;
    EXPECT_TRUE(action.ok);
    EXPECT_STREQ(action.rule, "repeated-uncorrectable");
    EXPECT_NE(action.checkpoint_id, ~0ULL);
  }
  EXPECT_TRUE(found);
  // The injector was re-armed deterministically: the restored system keeps
  // running under injection without touching the old exhausted streams.
  (void)env.soc.scrub_efpga();
  supervisor.poll();
  EXPECT_EQ(env.soc.efpga_stats().scrub_silent, 0u);
}

/// The rollback rung on its own, episode after episode: each pair of
/// uncorrectable eFPGA events is one rollback, and each rollback brings a
/// re-programmed configuration back to the checkpoint's digest.
TEST(Supervisor, EveryUncorrectableEpisodeRollsBackToTheCheckpoint) {
  constexpr std::uint64_t kEpisodes = 8;
  boot::BootEnvironment env;
  boot_programmed(env);
  FdirBus bus(1024);
  FdirConfig config;
  config.max_restart_attempts = 0;
  config.max_rollbacks = ~0u;
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, nullptr, {});
  ASSERT_TRUE(supervisor.checkpoint().ok());
  const std::uint64_t checkpoint_digest = env.soc.efpga_config_digest();

  for (std::uint64_t episode = 0; episode < kEpisodes; ++episode) {
    SCOPED_TRACE(episode);
    ASSERT_TRUE(
        env.soc.program_efpga(test_bitstream(0x100 + episode)).ok());
    ASSERT_NE(env.soc.efpga_config_digest(), checkpoint_digest);
    bus.publish(make_event(Layer::kEfpga, Severity::kUncorrectable, 0,
                           2 * episode));
    bus.publish(make_event(Layer::kEfpga, Severity::kUncorrectable, 1,
                           2 * episode + 1));
    supervisor.poll();
    EXPECT_EQ(supervisor.report().rollbacks, episode + 1);
    EXPECT_EQ(supervisor.report().restarts, 0u);
    EXPECT_EQ(env.soc.efpga_config_digest(), checkpoint_digest);
  }
  EXPECT_EQ(supervisor.mode(), FdirMode::kDegraded);
}

TEST(Supervisor, RestartRungHealsInPlaceWithoutRollback) {
  boot::BootEnvironment env;
  boot_programmed(env);
  FdirBus bus(1024);
  FdirConfig config;
  config.max_restart_attempts = 1;
  FdirSupervisor supervisor(config, bus);
  // No injector: the restart scrub runs clean and re-verifies the digest.
  supervisor.attach_soc(&env.soc, nullptr, {});
  ASSERT_TRUE(supervisor.checkpoint().ok());

  // Synthesized repeated-uncorrectable burst (e.g. relayed from a remote
  // monitor): the ladder's first rung suffices.
  bus.publish(make_event(Layer::kEfpga, Severity::kUncorrectable, 0, 10));
  bus.publish(make_event(Layer::kEfpga, Severity::kUncorrectable, 1, 11));
  supervisor.poll();
  const FdirReport& report = supervisor.report();
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_EQ(report.rollbacks, 0u);
  EXPECT_EQ(supervisor.mode(), FdirMode::kDegraded);
  ASSERT_EQ(report.actions.size(), 1u);
  EXPECT_TRUE(report.actions[0].ok);
  EXPECT_EQ(report.actions[0].checkpoint_id, ~0ULL);  // no restore needed
}

TEST(Supervisor, LadderExhaustionEntersSafeModeTerminally) {
  boot::BootEnvironment env;
  boot_programmed(env);
  FdirBus bus(1024);
  FdirConfig config;
  config.max_restart_attempts = 0;
  config.max_rollbacks = 0;   // no rungs left below safe mode
  config.checkpoint_ring = 2;
  FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, nullptr, {});

  bus.publish(make_event(Layer::kMemory, Severity::kUncorrectable, 0, 1));
  bus.publish(make_event(Layer::kMemory, Severity::kUncorrectable, 0, 2));
  supervisor.poll();
  EXPECT_EQ(supervisor.mode(), FdirMode::kSafe);
  EXPECT_EQ(supervisor.report().safe_mode_entries, 1u);
  EXPECT_TRUE(supervisor.efpga_quarantined());  // safe mode parks the eFPGA

  // Terminal: further decisions are suppressed, counters do not move, and
  // checkpoints are still refused-clean or accepted but no action fires.
  bus.publish(make_event(Layer::kEfpga, Severity::kExhausted, 0, 3));
  bus.publish(make_event(Layer::kDataflow, Severity::kExhausted, 0, 4));
  supervisor.poll();
  EXPECT_EQ(supervisor.mode(), FdirMode::kSafe);
  EXPECT_EQ(supervisor.report().safe_mode_entries, 1u);
  EXPECT_EQ(supervisor.report().quarantines, 0u);
  EXPECT_EQ(supervisor.report().sheds, 0u);
  EXPECT_GE(supervisor.report().suppressed, 2u);
}

TEST(Supervisor, ReportFingerprintIsRunTwiceStable) {
  const auto run_once = [] {
    boot::BootEnvironment env;
    boot_programmed(env);
    fault::FaultPlan rot;
    rot.seed = 33;
    rot.points.push_back({"efpga.config.rot", {.probability = 1.0}});
    fault::FaultInjector injector(rot);
    env.soc.attach_injector(&injector);
    FdirBus bus(1024);
    FdirConfig config;
    config.max_restart_attempts = 0;
    FdirSupervisor supervisor(config, bus);
    supervisor.attach_soc(&env.soc, &injector, rot);
    EXPECT_TRUE(supervisor.checkpoint().ok());
    for (int pass = 0; pass < 12; ++pass) {
      (void)env.soc.scrub_efpga();
      supervisor.poll();
    }
    return supervisor.report().fingerprint();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Supervisor, ReportRendersTheAuditTrail) {
  FdirBus bus;
  FdirSupervisor supervisor({}, bus);
  bus.publish(make_event(Layer::kEfpga, Severity::kExhausted, 1, 50));
  supervisor.poll();
  const std::string text = supervisor.report().render();
  EXPECT_NE(text.find("quarantine_accelerator"), std::string::npos);
  EXPECT_NE(text.find("escalation-exhausted"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace hermes::fdir
