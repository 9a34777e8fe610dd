// Performance floors: each test times two arms of one mechanism on the same
// work and fails when the ratio drops below its floor. They carry the ctest
// label `perf` and run alone (RUN_SERIAL), because a ratio measured beside
// other tests measures the host. Each arm is the fastest of a few repeats:
// noise on a shared host only ever adds time. Every test prints its ratio;
// the docs quote these lines.
//
//   ctest --test-dir build -L perf -V | grep '\[perf\]'
//
// The checks beside each ratio make sure the timed arms did the work they
// claim; the mechanisms' own suites (test_jit, test_sim_event, test_svc_*,
// test_fdir) hold the rest of their correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "boot/bl.hpp"
#include "boot/loadlist.hpp"
#include "common/rng.hpp"
#include "fdir/supervisor.hpp"
#include "hw/jit/exec_memory.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "nxmap/bitstream.hpp"
#include "svc/service.hpp"
#include "svc_corpus.hpp"

namespace hermes {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fastest of `repeats` calls of `arm`, each returning its own seconds.
template <typename Arm>
double best_of(int repeats, Arm arm) {
  double best = arm();
  for (int i = 1; i < repeats; ++i) best = std::min(best, arm());
  return best;
}

// ---------------------------------------------------------------------------
// JIT: dense toggle on a comb-heavy fabric, JIT vs the event engine
// ---------------------------------------------------------------------------

constexpr int kChannels = 32;
constexpr int kDepth = 24;

/// 32 channels of 24-deep comb chains behind input ports, each ending in a
/// register, XOR-folded to one output, plus a free-running counter (~830
/// comb ops). With every input changing every cycle the event engine
/// re-evaluates nearly everything, which is the JIT's home turf.
hw::Module make_toggle_fabric() {
  using namespace hw;
  Module m("jit_fabric");
  Rng rng(42);

  const WireId one = m.make_const(1, 1);
  const WireId cnt_d = m.add_wire(16, "cnt_d");
  const WireId cnt_q = m.make_register(cnt_d, one, 0, "cnt_q");
  const WireId inc = m.make_const(1, 16);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {cnt_q, inc};
  add.outputs = {cnt_d};
  m.add_cell(std::move(add));
  m.add_output(cnt_q, "count");

  static const CellKind kChainOps[] = {CellKind::kAdd, CellKind::kXor,
                                       CellKind::kMul, CellKind::kOr,
                                       CellKind::kSub};
  std::vector<WireId> channel_regs;
  for (int c = 0; c < kChannels; ++c) {
    const std::string port = "in" + std::to_string(c);
    const WireId in = m.add_wire(32, port);
    m.add_input(in, port);
    WireId x = in;
    for (int d = 0; d < kDepth; ++d) {
      const WireId k = m.make_const(rng.next_u64() | 1, 32);
      x = m.make_binop(kChainOps[(c + d) % std::size(kChainOps)], x, k, 32);
    }
    channel_regs.push_back(m.make_register(x, one, 0));
  }

  WireId folded = channel_regs[0];
  for (std::size_t c = 1; c < channel_regs.size(); ++c) {
    folded = m.make_binop(CellKind::kXor, folded, channel_regs[c], 32);
  }
  m.add_output(folded, "sig");
  return m;
}

TEST(PerfGates, JitDenseToggleAtLeast3xOverEventEngine) {
  if (!hw::jit::jit_available()) {
    GTEST_SKIP() << "the JIT cannot run on this host";
  }
  constexpr int kWarmupCycles = 2000;
  constexpr int kMeasuredCycles = 30000;
  const hw::Module fabric = make_toggle_fabric();
  std::vector<hw::WireId> inputs;
  for (int c = 0; c < kChannels; ++c) {
    inputs.push_back(fabric.port_wire("in" + std::to_string(c)));
  }

  // Identical stimulus on both engines; the checksum folds every cycle's
  // output, so an engine that computes something else cannot pass.
  const auto arm = [&](hw::SimBackend backend, std::uint64_t* checksum) {
    hw::Simulator sim(fabric, hw::SimOptions{.backend = backend});
    EXPECT_EQ(sim.active_backend(), backend);
    Rng rng(7);
    for (int i = 0; i < kWarmupCycles; ++i) {
      for (const hw::WireId wire : inputs) sim.set_input(wire, rng.next_u64());
      sim.step();
    }
    std::uint64_t sum = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kMeasuredCycles; ++i) {
      for (const hw::WireId wire : inputs) sim.set_input(wire, rng.next_u64());
      sim.step();
      sum ^= sim.get_output("sig") + static_cast<std::uint64_t>(i);
    }
    const double elapsed = seconds_since(start);
    *checksum = sum ^ sim.get_output("count");
    return elapsed;
  };

  std::uint64_t event_sum = 0;
  std::uint64_t jit_sum = 0;
  const double event_s =
      best_of(3, [&] { return arm(hw::SimBackend::kEvent, &event_sum); });
  const double jit_s =
      best_of(3, [&] { return arm(hw::SimBackend::kJit, &jit_sum); });
  ASSERT_EQ(jit_sum, event_sum);
  const double ratio = event_s / jit_s;
  std::printf("[perf] jit dense toggle: event %.3f s, jit %.3f s over %d "
              "cycles: %.2fx (floor 3x)\n",
              event_s, jit_s, kMeasuredCycles, ratio);
  EXPECT_GE(ratio, 3.0);
}

// ---------------------------------------------------------------------------
// svc: a warm pass over 1000 mixed-tenant jobs vs the cold pass
// ---------------------------------------------------------------------------

svc::ServiceOptions service_options(unsigned workers) {
  svc::ServiceOptions options;
  options.workers = workers;
  options.sweep.ops = {ir::Op::kAdd, ir::Op::kMul};
  options.sweep.widths = {8, 32};
  options.sweep.pipeline_stages = {0, 1};
  options.sweep.clock_periods_ns = {4.0, 8.0};
  return options;
}

TEST(PerfGates, SvcWarmPassAtLeast5xOverColdPass) {
  constexpr int kJobs = 1000;
  const std::vector<svc::CompileRequest> corpus =
      svc::corpus::mixed_corpus(kJobs, 0x57A7E, {"alpha", "beta", "gamma"});

  // Cold: a fresh serial service per repeat, so every stage computes.
  std::vector<svc::CompileOutcome> cold;
  const double cold_s = best_of(2, [&] {
    svc::CompileService fresh(service_options(0));
    fresh.set_tenant_weight("alpha", 2);
    const Clock::time_point start = Clock::now();
    cold = fresh.run(corpus);
    return seconds_since(start);
  });

  // Warm: the same corpus again through one service whose cache holds it.
  svc::CompileService service(service_options(0));
  service.set_tenant_weight("alpha", 2);
  (void)service.run(corpus);
  std::vector<svc::CompileOutcome> warm;
  const double warm_s = best_of(3, [&] {
    const Clock::time_point start = Clock::now();
    warm = service.run(corpus);
    return seconds_since(start);
  });

  svc::CompileService pooled(service_options(4));
  pooled.set_tenant_weight("alpha", 2);
  const std::vector<svc::CompileOutcome> parallel = pooled.run(corpus);

  ASSERT_EQ(cold.size(), corpus.size());
  ASSERT_EQ(warm.size(), corpus.size());
  ASSERT_EQ(parallel.size(), corpus.size());
  int warm_mismatches = 0;
  int pooled_mismatches = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    warm_mismatches += warm[i].fingerprint() != cold[i].fingerprint() ||
                       warm[i].bitstream != cold[i].bitstream;
    pooled_mismatches += parallel[i].fingerprint() != cold[i].fingerprint() ||
                         parallel[i].dispatch_index != cold[i].dispatch_index;
  }
  EXPECT_EQ(warm_mismatches, 0) << "warm artifacts differ from cold ones";
  EXPECT_EQ(pooled_mismatches, 0) << "the pooled run diverged from serial";
  EXPECT_EQ(service.cache().stats().rot_served, 0u);

  const double ratio = cold_s / warm_s;
  std::printf("[perf] svc %d jobs: cold %.3f s, warm %.3f s: %.2fx "
              "(floor 5x)\n",
              kJobs, cold_s, warm_s, ratio);
  EXPECT_GE(ratio, 5.0);
}

// ---------------------------------------------------------------------------
// FDIR: rollback to a checkpoint vs a cold reboot
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> perf_bitstream() {
  std::vector<nx::BitstreamFrame> frames(8);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].column = static_cast<std::uint32_t>(f);
    for (std::size_t w = 0; w < 64; ++w) {
      frames[f].words.push_back(
          static_cast<std::uint32_t>((f << 20) ^ (w * 0x9E3779B9u)));
    }
  }
  return nx::pack_raw_bitstream(/*device_id=*/0xBEC5, frames);
}

/// Stages BL1, a load list, an eFPGA bitstream and a BL2 image in flash.
void stage_perf_boot(boot::BootEnvironment& env) {
  std::vector<std::uint8_t> bl1(1024, 0x11);
  boot::LoadList list;
  boot::LoadEntry fpga;
  fpga.kind = boot::LoadKind::kBitstream;
  fpga.name = "accel";
  fpga.dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
  list.entries.push_back(fpga);
  boot::LoadEntry app;
  app.kind = boot::LoadKind::kBl2;
  app.name = "app";
  app.dest_addr = boot::MemoryMap::kDdrBase;
  list.entries.push_back(app);
  std::vector<std::vector<std::uint8_t>> images = {
      perf_bitstream(), std::vector<std::uint8_t>(2048, 0x22)};
  boot::stage_boot_media(env, bl1, list, images);
}

TEST(PerfGates, FdirRollbackAtLeast5xCheaperThanColdReboot) {
  constexpr int kEpisodes = 200;

  // Cold reboot: stage the boot media and run the whole boot chain again,
  // which re-programs the eFPGA.
  const double reboot_s = best_of(3, [&] {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kEpisodes; ++i) {
      boot::BootEnvironment env;
      stage_perf_boot(env);
      EXPECT_TRUE(boot::run_boot_chain(env).status.ok());
    }
    return seconds_since(start);
  });

  // Rollback: two uncorrectable eFPGA events per episode cross the policy
  // threshold; with the restart rung off, the ladder restores the
  // checkpointed SoC and re-verifies its configuration digest.
  boot::BootEnvironment env;
  stage_perf_boot(env);
  ASSERT_TRUE(boot::run_boot_chain(env).status.ok());
  fdir::FdirBus bus(1024);
  fdir::FdirConfig config;
  config.max_restart_attempts = 0;
  config.max_rollbacks = ~0u;
  fdir::FdirSupervisor supervisor(config, bus);
  supervisor.attach_soc(&env.soc, nullptr, {});
  ASSERT_TRUE(supervisor.checkpoint().ok());
  std::uint64_t episodes = 0;
  const double rollback_s = best_of(3, [&] {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kEpisodes; ++i) {
      bus.publish({fdir::Layer::kEfpga, fdir::Severity::kUncorrectable,
                   ErrorCode::kIntegrityError, 0, episodes});
      bus.publish({fdir::Layer::kEfpga, fdir::Severity::kUncorrectable,
                   ErrorCode::kIntegrityError, 1, episodes});
      supervisor.poll();
      ++episodes;
    }
    return seconds_since(start);
  });
  ASSERT_EQ(supervisor.report().rollbacks, episodes);

  const double ratio = reboot_s / rollback_s;
  std::printf("[perf] fdir recovery: cold reboot %.3f ms, rollback %.3f ms "
              "per episode: %.1fx (floor 5x)\n",
              1e3 * reboot_s / kEpisodes, 1e3 * rollback_s / kEpisodes, ratio);
  EXPECT_GE(ratio, 5.0);
}

}  // namespace
}  // namespace hermes
