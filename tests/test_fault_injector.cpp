// Tests for the cross-layer fault-injection bus: schedule determinism,
// point registration, and the per-layer recovery paths it exercises
// (AXI retry, flash TMR voting, SpaceWire re-send, HM restart budget).
#include <gtest/gtest.h>

#include <vector>

#include "axi/master.hpp"
#include "axi/slave_memory.hpp"
#include "boot/bl.hpp"
#include "boot/flash.hpp"
#include "boot/loadlist.hpp"
#include "boot/spacewire.hpp"
#include "dataflow/taskgraph.hpp"
#include "fault/injector.hpp"
#include "hv/hypervisor.hpp"
#include "svc/cache.hpp"

namespace hermes::fault {
namespace {

FaultPlan one_point_plan(std::string point, FaultSchedule schedule,
                         std::uint64_t seed = 7) {
  FaultPlan plan;
  plan.seed = seed;
  plan.points.push_back({std::move(point), schedule});
  return plan;
}

TEST(Schedule, SameSeedSameFireSequence) {
  FaultSchedule sched;
  sched.probability = 0.3;
  FaultInjector a(one_point_plan("p", sched, 42));
  FaultInjector b(one_point_plan("p", sched, 42));
  const PointId pa = a.register_point("p");
  const PointId pb = b.register_point("p");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.should_fire(pa), b.should_fire(pb)) << "opportunity " << i;
  }
  EXPECT_GT(a.stats(pa).fires, 0u);
  EXPECT_LT(a.stats(pa).fires, 1000u);
}

TEST(Schedule, FiringIsIndependentOfOtherPoints) {
  // The same point must fire identically whether or not another point is
  // being exercised in between — each point owns a private RNG stream.
  FaultSchedule sched;
  sched.probability = 0.25;
  FaultPlan plan;
  plan.seed = 9;
  plan.points = {{"x", sched}, {"y", sched}};

  FaultInjector alone(plan);
  const PointId x1 = alone.register_point("x");
  std::vector<bool> solo;
  for (int i = 0; i < 200; ++i) solo.push_back(alone.should_fire(x1));

  FaultInjector mixed(plan);
  const PointId x2 = mixed.register_point("x");
  const PointId y2 = mixed.register_point("y");
  for (int i = 0; i < 200; ++i) {
    (void)mixed.should_fire(y2);
    ASSERT_EQ(mixed.should_fire(x2), solo[i]) << "opportunity " << i;
    (void)mixed.should_fire(y2);
  }
}

TEST(Schedule, WindowBoundsFiring) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.window_begin = 10;
  sched.window_end = 15;
  FaultInjector inj(one_point_plan("p", sched));
  const PointId p = inj.register_point("p");
  for (std::uint64_t i = 0; i < 30; ++i) {
    const bool fired = inj.should_fire(p);
    EXPECT_EQ(fired, i >= 10 && i < 15) << "opportunity " << i;
  }
  EXPECT_EQ(inj.stats(p).fires, 5u);
  EXPECT_EQ(inj.stats(p).opportunities, 30u);
}

TEST(Schedule, BurstContinuesPastWindow) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.window_begin = 0;
  sched.window_end = 1;  // only opportunity 0 can *start* a firing
  sched.burst_len = 3;
  FaultInjector inj(one_point_plan("p", sched));
  const PointId p = inj.register_point("p");
  EXPECT_TRUE(inj.should_fire(p));
  EXPECT_TRUE(inj.should_fire(p));
  EXPECT_TRUE(inj.should_fire(p));
  EXPECT_FALSE(inj.should_fire(p));
  EXPECT_EQ(inj.stats(p).fires, 3u);
}

TEST(Schedule, MaxFiresBudget) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 4;
  FaultInjector inj(one_point_plan("p", sched));
  const PointId p = inj.register_point("p");
  unsigned fires = 0;
  for (int i = 0; i < 100; ++i) fires += inj.should_fire(p) ? 1 : 0;
  EXPECT_EQ(fires, 4u);
}

TEST(Injector, UnarmedPointNeverFires) {
  FaultSchedule sched;
  sched.probability = 1.0;
  FaultInjector inj(one_point_plan("armed", sched));
  const PointId other = inj.register_point("unarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.should_fire(other));
  EXPECT_FALSE(inj.should_fire(kNoFaultPoint));
}

TEST(Injector, ReRegistrationPreservesState) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 2;
  FaultInjector inj(one_point_plan("p", sched));
  const PointId first = inj.register_point("p");
  EXPECT_TRUE(inj.should_fire(first));
  // A torn-down and rebuilt subsystem re-registers: same id, stream resumes.
  const PointId second = inj.register_point("p");
  EXPECT_EQ(first, second);
  EXPECT_TRUE(inj.should_fire(second));
  EXPECT_FALSE(inj.should_fire(second));  // budget carried across
}

TEST(Injector, LoadPlanRearmsAndResets) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 1;
  FaultInjector inj(one_point_plan("p", sched, 5));
  const PointId p = inj.register_point("p");
  EXPECT_TRUE(inj.should_fire(p));
  EXPECT_FALSE(inj.should_fire(p));
  inj.load_plan(one_point_plan("p", sched, 5));  // same plan again
  EXPECT_TRUE(inj.should_fire(p)) << "counters must reset on load_plan";
}

TEST(Injector, MutateWordStaysInWidthAndChangesValue) {
  FaultSchedule sched;
  sched.probability = 1.0;
  FaultInjector inj(one_point_plan("p", sched));
  const PointId p = inj.register_point("p");
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t mutated = inj.mutate_word(p, 0, 16);
    EXPECT_NE(mutated, 0u);            // mask is non-zero
    EXPECT_EQ(mutated >> 16, 0u);      // confined to the low 16 bits
  }
}

TEST(Plans, RandomPlanIsDeterministicAndNonEmpty) {
  for (std::uint64_t seed = 1; seed < 40; ++seed) {
    const FaultPlan a = make_random_plan(seed);
    const FaultPlan b = make_random_plan(seed);
    ASSERT_FALSE(a.points.empty());
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].point, b.points[i].point);
      EXPECT_EQ(a.points[i].schedule.probability,
                b.points[i].schedule.probability);
      EXPECT_EQ(a.points[i].schedule.window_begin,
                b.points[i].schedule.window_begin);
      EXPECT_EQ(a.points[i].schedule.max_fires, b.points[i].schedule.max_fires);
    }
  }
}

TEST(Plans, CatalogCoversEveryRegisteredPoint) {
  // Every point the subsystems register must be in the catalog, so random
  // plans can reach every layer.
  FaultInjector inj;
  axi::AxiSlaveMemory slave(1024, axi::MemoryTiming{});
  slave.attach_injector(&inj);
  boot::BootEnvironment env;
  env.attach_injector(&inj);
  hv::Hypervisor hv(hv::HvConfig{});
  hv.attach_injector(&inj);
  // The dataflow engine registers its node points per simulation.
  df::TaskGraph graph;
  const std::size_t only = graph.add_task({"t", 1, 0, 1, 0});
  graph.sources = {only};
  graph.sinks = {only};
  df::DataflowOptions df_options;
  df_options.injector = &inj;
  (void)df::simulate_dataflow(graph, 1, df_options);
  svc::FlowCache cache;
  cache.attach_injector(&inj);

  const auto catalog = default_point_catalog();
  for (std::size_t i = 0; i < inj.num_points(); ++i) {
    bool found = false;
    for (std::string_view name : catalog) {
      if (name == inj.name(i)) found = true;
    }
    EXPECT_TRUE(found) << "point not in catalog: " << inj.name(i);
  }
  EXPECT_EQ(inj.num_points(), catalog.size());
}

// ---------------------------------------------------------------------------
// Per-layer recovery paths
// ---------------------------------------------------------------------------

TEST(AxiRecovery, WriteSlvErrIsRetriedAndSucceeds) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 1;  // exactly the first write response fails
  FaultInjector inj(one_point_plan("axi.b.slverr", sched));
  axi::AxiSlaveMemory slave(4096, axi::MemoryTiming{});
  slave.attach_injector(&inj);
  axi::AxiMaster master(slave);

  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  ASSERT_TRUE(master.write(0x100, data).ok());
  EXPECT_GE(master.stats().retries, 1u);
  EXPECT_GE(master.stats().errors, 1u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(slave.peek(0x100 + i), data[i]) << "byte " << i;
  }
}

TEST(AxiRecovery, ReadSlvErrIsRetriedAndDataIsClean) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 1;
  FaultInjector inj(one_point_plan("axi.r.slverr", sched));
  axi::AxiSlaveMemory slave(4096, axi::MemoryTiming{});
  slave.attach_injector(&inj);
  axi::AxiMaster master(slave);

  for (std::uint64_t i = 0; i < 64; ++i) {
    slave.poke(0x200 + i, static_cast<std::uint8_t>(0xA0 ^ i));
  }
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(master.read(0x200, out).ok());
  EXPECT_GE(master.stats().retries, 1u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint8_t>(0xA0 ^ i)) << "byte " << i;
  }
  // Retried beats are not double-counted.
  EXPECT_EQ(master.stats().bytes_read, 64u);
}

TEST(AxiRecovery, PersistentStallTripsWatchdogNotHang) {
  FaultSchedule sched;
  sched.probability = 1.0;  // AR never accepted
  FaultInjector inj(one_point_plan("axi.ar.stall", sched));
  axi::AxiSlaveMemory slave(4096, axi::MemoryTiming{});
  slave.attach_injector(&inj);
  axi::MasterConfig config;
  config.watchdog_cycles = 500;
  axi::AxiMaster master(slave, config);

  std::vector<std::uint8_t> out(32);
  const Status status = master.read(0, out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_GE(master.stats().watchdog_trips, 1u);
}

TEST(AxiRecovery, OobReadAnswersDecErrWithoutRetry) {
  axi::AxiSlaveMemory slave(256, axi::MemoryTiming{});
  axi::AxiMaster master(slave);
  std::vector<std::uint8_t> out(16);
  const Status status = master.read(0x10'0000, out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(master.stats().retries, 0u) << "DECERR is permanent, never retried";
}

TEST(AxiRecovery, LegacyOobModeStaysOkay) {
  axi::MemoryTiming timing;
  timing.oob_decerr = false;
  axi::AxiSlaveMemory slave(256, timing);
  axi::AxiMaster master(slave);
  std::vector<std::uint8_t> out(16, 0xFF);
  ASSERT_TRUE(master.read(0x10'0000, out).ok());
  for (std::uint8_t byte : out) EXPECT_EQ(byte, 0u);  // legacy: reads as 0
}

TEST(FlashRecovery, TmrVoteMasksRottedReplica) {
  FaultSchedule sched;
  sched.probability = 1.0;
  FaultInjector inj(one_point_plan("flash.rot.replica", sched));
  boot::FlashBank bank(4096, 3);
  bank.attach_injector(&inj);

  std::vector<std::uint8_t> image(512);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::uint8_t>(i ^ 0x5C);
  }
  bank.program(0, image);

  std::vector<std::uint8_t> out(image.size());
  const boot::FlashBank::ReadResult r = bank.read(0, out);
  EXPECT_GT(r.corrected_bytes, 0u) << "the vote must have seen the rot";
  EXPECT_EQ(out, image) << "TMR must mask a single rotted copy";
}

TEST(FlashRecovery, VotedRotEscapesTmrButReplicaReadIsClean) {
  FaultSchedule sched;
  sched.probability = 1.0;
  FaultInjector inj(one_point_plan("flash.rot.voted", sched));
  boot::FlashBank bank(4096, 3);
  bank.attach_injector(&inj);

  std::vector<std::uint8_t> image(256, 0x42);
  bank.program(0, image);
  std::vector<std::uint8_t> voted(image.size());
  bank.read(0, voted);
  EXPECT_NE(voted, image) << "post-vote rot cannot be masked by TMR";

  // The per-replica recovery rung BL1 uses: raw copies are still intact.
  std::vector<std::uint8_t> copy(image.size());
  bank.read_replica(0, 0, copy);
  EXPECT_EQ(copy, image);
}

TEST(SpwRecovery, DroppedFramesAreResent) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.window_begin = 1;  // let the request frame through
  sched.max_fires = 2;
  FaultInjector inj(one_point_plan("spw.frame.drop", sched));
  boot::SpaceWireLink link;
  link.attach_injector(&inj);
  link.host_object("obj", std::vector<std::uint8_t>(1000, 0x77));

  std::uint64_t cycles = 0;
  auto fetched = link.fetch("obj", cycles);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value().size(), 1000u);
  EXPECT_EQ(link.frames_dropped(), 2u);
  EXPECT_GE(link.retries(), 2u);
}

TEST(SpwRecovery, CorruptedFramesAreCaughtByCrc) {
  FaultSchedule sched;
  sched.probability = 1.0;
  sched.window_begin = 1;
  sched.max_fires = 1;
  FaultInjector inj(one_point_plan("spw.frame.corrupt", sched));
  boot::SpaceWireLink link;
  link.attach_injector(&inj);
  std::vector<std::uint8_t> object(700);
  for (std::size_t i = 0; i < object.size(); ++i) {
    object[i] = static_cast<std::uint8_t>(i);
  }
  link.host_object("obj", object);

  std::uint64_t cycles = 0;
  auto fetched = link.fetch("obj", cycles);
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value(), object) << "corruption must never reach the data";
  EXPECT_GE(link.crc_errors_detected(), 1u);
}

TEST(SpwRecovery, WedgedLinkHitsDeadlineNotHang) {
  FaultSchedule sched;
  sched.probability = 1.0;  // every frame dropped, forever
  FaultInjector inj(one_point_plan("spw.frame.drop", sched));
  boot::SpwTiming timing;
  timing.deadline_cycles = 2'000;
  boot::SpaceWireLink link(timing);
  link.attach_injector(&inj);
  link.host_object("obj", std::vector<std::uint8_t>(4096, 1));

  std::uint64_t cycles = 0;
  auto fetched = link.fetch("obj", cycles, /*max_retries=*/1'000'000);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(BootRecovery, VotedRotRecoveredByReplicaScan) {
  // Rot every voted flash read: BL0 falls back to SpaceWire for BL1, the
  // load list falls back to SpaceWire, and each image is recovered by the
  // per-replica digest scan — the chain still reaches the application.
  FaultSchedule sched;
  sched.probability = 1.0;
  FaultInjector inj(one_point_plan("flash.rot.voted", sched));
  boot::BootEnvironment env;
  env.attach_injector(&inj);

  std::vector<std::uint8_t> bl1(1024, 0x11);
  boot::LoadList list;
  boot::LoadEntry app;
  app.kind = boot::LoadKind::kBl2;
  app.name = "app";
  app.dest_addr = boot::MemoryMap::kDdrBase;
  list.entries.push_back(app);
  std::vector<std::vector<std::uint8_t>> images = {
      std::vector<std::uint8_t>(2048, 0x22)};
  boot::stage_boot_media(env, bl1, list, images);

  const boot::BootResult result = boot::run_boot_chain(env);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.reached, boot::BootStage::kApplication);
  EXPECT_GT(result.report.integrity_retries, 0u);
  EXPECT_GT(result.report.spw_fallbacks, 0u);
  bool replica_recovery = false;
  for (const boot::StepRecord& step : result.report.steps) {
    if (step.name.rfind("recover", 0) == 0 &&
        step.detail.find("replica") != std::string::npos) {
      replica_recovery = true;
    }
  }
  EXPECT_TRUE(replica_recovery) << result.report.render();
}

hv::HvConfig crashy_config(unsigned restart_budget) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 900, 0, 0}};
  hv::PartitionConfig p0;
  p0.name = "crashy";
  p0.region = {0x0000, 0x1000};
  p0.profile = {1000, 0, 100};
  p0.on_job = [](hv::PartitionApi& api) { api.raise_error(); };
  config.partitions = {p0};
  config.restart_budget = restart_budget;
  return config;
}

TEST(HmEscalation, RestartBudgetThenSuspend) {
  hv::Hypervisor hv(crashy_config(/*restart_budget=*/2));
  auto stats = hv.run(10'000);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  const auto& log = stats.value().hm_log;
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0].action, hv::HmAction::kRestartPartition);
  EXPECT_EQ(log[1].action, hv::HmAction::kRestartPartition);
  EXPECT_EQ(log[2].action, hv::HmAction::kSuspendPartition);
  EXPECT_EQ(stats.value().partitions[0].restarts, 2u);
  EXPECT_EQ(stats.value().partitions[0].final_state,
            hv::PartitionState::kSuspended);
  // Suspension sticks: no further jobs complete, no further HM events.
  EXPECT_EQ(log.size(), 3u);
}

TEST(HmEscalation, ResumedPartitionHaltsOnNextError) {
  // A system partition keeps resuming the crash-looping partition; once the
  // restart budget is spent the second escalation rung halts it terminally.
  hv::HvConfig config = crashy_config(/*restart_budget=*/1);
  config.plan.per_core[0].push_back({900, 80, 1, 0});
  hv::PartitionConfig monitor;
  monitor.name = "monitor";
  monitor.system = true;
  monitor.region = {0x1000, 0x1000};
  monitor.profile = {1000, 0, 10};
  monitor.on_job = [](hv::PartitionApi& api) {
    (void)api.resume_partition(0);
  };
  config.partitions.push_back(monitor);

  hv::Hypervisor hv(config);
  auto stats = hv.run(10'000);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().partitions[0].final_state,
            hv::PartitionState::kHalted);
  // Filter for the error events (deadline-miss log entries interleave).
  std::vector<hv::HmAction> actions;
  for (const auto& entry : stats.value().hm_log) {
    if (entry.event == hv::HmEvent::kPartitionError) {
      actions.push_back(entry.action);
    }
  }
  ASSERT_EQ(actions.size(), 3u);
  EXPECT_EQ(actions[0], hv::HmAction::kRestartPartition);
  EXPECT_EQ(actions[1], hv::HmAction::kSuspendPartition);
  EXPECT_EQ(actions[2], hv::HmAction::kHaltPartition);
}

TEST(HvInjection, JobOverrunRaisesBudgetOverrun) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 900, 0, 0}};
  hv::PartitionConfig p0;
  p0.name = "p0";
  p0.region = {0x0000, 0x1000};
  p0.profile = {1000, 0, 100};
  config.partitions = {p0};

  FaultSchedule sched;
  sched.probability = 1.0;
  sched.max_fires = 1;  // exactly one inflated job
  FaultInjector inj(one_point_plan("hv.job.overrun", sched));
  hv::Hypervisor hv(config);
  hv.attach_injector(&inj);

  auto stats = hv.run(10'000);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().partitions[0].budget_overruns, 1u);
  bool raised = false;
  for (const auto& entry : stats.value().hm_log) {
    if (entry.event == hv::HmEvent::kBudgetOverrun) raised = true;
  }
  EXPECT_TRUE(raised);
}

TEST(HvInjection, InjectedCrashesConsumeRestartBudget) {
  hv::HvConfig config;
  config.plan.major_frame = 1000;
  config.plan.per_core.assign(hv::kNumCores, {});
  config.plan.per_core[0] = {{0, 900, 0, 0}};
  hv::PartitionConfig p0;
  p0.name = "p0";
  p0.region = {0x0000, 0x1000};
  p0.profile = {1000, 0, 100};
  config.partitions = {p0};
  config.restart_budget = 2;

  FaultSchedule sched;
  sched.probability = 1.0;  // crash at every job completion
  FaultInjector inj(one_point_plan("hv.partition.crash", sched));
  hv::Hypervisor hv(config);
  hv.attach_injector(&inj);

  auto stats = hv.run(10'000);
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().partitions[0].restarts, 2u);
  EXPECT_EQ(stats.value().partitions[0].final_state,
            hv::PartitionState::kSuspended);
}

}  // namespace
}  // namespace hermes::fault
