// Differential tests across every simulator engine, plus the determinism
// contract of the parallel campaign / characterization runners.
//
// The event-driven engine (default), the full-sweep oracle, the JIT backend
// and lane 0 of the bit-sliced engine share one compiled op table but
// disagree-prone machinery (fanout scheduling, level draining, native
// codegen, slice transposition). The randomized test drives all four engines
// on generated netlists — random inputs, corrupt_wire injections, RAM
// traffic, backdoor memory writes — and asserts every wire and memory word
// matches after every settle. The generator (tests/netlist_fuzz.hpp) is
// biased toward edge widths (1, 63, 64), shift counts at/beyond the width,
// mul/div corner constants and same-cycle RAM read/write collisions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fault/campaign.hpp"
#include "hls/eucalyptus.hpp"
#include "hls/flow.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "hw/sim_sliced.hpp"
#include "netlist_fuzz.hpp"

namespace hermes::hw {
namespace {

using fuzz::RandomDesign;

void expect_identical(const Simulator& oracle, const Simulator& other,
                      const SlicedSimulator& sliced,
                      const RandomDesign& design, int trial, int cycle,
                      const char* engine) {
  for (WireId w = 0; w < design.module.wire_count(); ++w) {
    ASSERT_EQ(oracle.get(w), other.get(w))
        << engine << " trial " << trial << " cycle " << cycle << " wire "
        << design.module.wire_name(w) << " (" << w << ")";
    ASSERT_EQ(oracle.get(w), sliced.get_lane(w, 0))
        << "sliced lane0 trial " << trial << " cycle " << cycle << " wire "
        << design.module.wire_name(w) << " (" << w << ")";
  }
  for (std::size_t mem = 0; mem < design.memory_count; ++mem) {
    const std::size_t depth = design.module.memories()[mem].depth;
    for (std::size_t addr = 0; addr < depth; ++addr) {
      ASSERT_EQ(oracle.read_memory(mem, addr), other.read_memory(mem, addr))
          << engine << " trial " << trial << " cycle " << cycle << " mem["
          << addr << "]";
      ASSERT_EQ(oracle.read_memory(mem, addr),
                sliced.read_memory_lane(mem, addr, 0))
          << "sliced lane0 trial " << trial << " cycle " << cycle << " mem["
          << addr << "]";
    }
  }
}

TEST(SimEngineDifferential, RandomNetlistsMatchAcrossAllEngines) {
  constexpr int kDesigns = 60;
  constexpr int kCyclesPerDesign = 25;  // 1500 netlist/cycle trials
  Rng rng(0xD1FF);

  for (int trial = 0; trial < kDesigns; ++trial) {
    RandomDesign design = fuzz::make_random_design(rng, trial);
    ASSERT_TRUE(design.module.validate().ok()) << "trial " << trial;
    Simulator sweep(design.module, SimOptions{.backend = SimBackend::kSweep});
    Simulator event(design.module, SimOptions{.backend = SimBackend::kEvent});
    Simulator jit(design.module, SimOptions{.backend = SimBackend::kJit});
    SlicedSimulator sliced(design.module);
    ASSERT_TRUE(sweep.status().ok()) << sweep.status().message();
    ASSERT_TRUE(event.status().ok()) << event.status().message();
    ASSERT_TRUE(jit.status().ok()) << jit.status().message();
    ASSERT_TRUE(sliced.status().ok()) << sliced.status().message();
    expect_identical(sweep, event, sliced, design, trial, -1, "event");
    expect_identical(sweep, jit, sliced, design, trial, -1, "jit");

    const std::vector<WireId> regs = sweep.register_outputs();
    for (int cycle = 0; cycle < kCyclesPerDesign; ++cycle) {
      for (const std::string& port : design.input_ports) {
        if (rng.next_bool(0.5)) {
          const std::uint64_t value = rng.next_u64();
          sweep.set_input(port, value);
          event.set_input(port, value);
          jit.set_input(port, value);
          sliced.set_input(port, value);
        }
      }
      if (rng.next_bool(0.3)) {  // mid-cycle settle must agree too
        sweep.eval_comb();
        event.eval_comb();
        jit.eval_comb();
        sliced.eval_comb();
        expect_identical(sweep, event, sliced, design, trial, cycle, "event");
        expect_identical(sweep, jit, sliced, design, trial, cycle, "jit");
      }
      if (rng.next_bool(0.3)) {
        // SEU injection: mostly register state, sometimes an arbitrary
        // (possibly combinational) wire — the next settle must erase the
        // flip identically in every engine. Sliced lanes all take the flip
        // so lane 0 keeps tracking the scalar engines.
        const WireId target =
            (!regs.empty() && rng.next_bool(0.7))
                ? regs[rng.next_below(regs.size())]
                : static_cast<WireId>(
                      rng.next_below(design.module.wire_count()));
        const unsigned bit = static_cast<unsigned>(
            rng.next_below(design.module.wire_width(target)));
        sweep.corrupt_wire(target, bit);
        event.corrupt_wire(target, bit);
        jit.corrupt_wire(target, bit);
        sliced.corrupt_wire(target, bit, ~0ULL);
      }
      if (design.memory_count != 0 && rng.next_bool(0.2)) {
        const Memory& mem = design.module.memories()[0];
        const std::size_t addr = rng.next_below(mem.depth);
        const std::uint64_t value = rng.next_u64();
        sweep.write_memory(0, addr, value);
        event.write_memory(0, addr, value);
        jit.write_memory(0, addr, value);
        sliced.write_memory(0, addr, value);
      }
      sweep.step();
      event.step();
      jit.step();
      sliced.step();
      ASSERT_EQ(sweep.cycles(), event.cycles());
      ASSERT_EQ(sweep.cycles(), jit.cycles());
      expect_identical(sweep, event, sliced, design, trial, cycle, "event");
      expect_identical(sweep, jit, sliced, design, trial, cycle, "jit");
    }
  }
}

TEST(SimEngineDifferential, HlsAcceleratorSameResultAllBackends) {
  hls::FlowOptions options;
  options.top = "dot";
  auto flow = hls::run_flow(R"(
    int dot(int a[16], int b[16]) {
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
      return acc;
    }
  )", options);
  ASSERT_TRUE(flow.ok());
  const Module& module = flow.value().fsmd.module;

  auto run = [&](SimBackend backend) {
    Simulator sim(module, SimOptions{.backend = backend});
    EXPECT_TRUE(sim.status().ok());
    for (std::size_t i = 0; i < 16; ++i) {
      sim.write_memory(0, i, i + 1);
      sim.write_memory(1, i, 2 * i + 1);
    }
    sim.set_input("start", 1);
    auto cycles = sim.run_until("done", 100'000);
    EXPECT_TRUE(cycles.ok());
    return std::make_pair(cycles.ok() ? cycles.value() : 0,
                          sim.get_output("return_value"));
  };
  const auto [event_cycles, event_result] = run(SimBackend::kEvent);
  const auto [sweep_cycles, sweep_result] = run(SimBackend::kSweep);
  const auto [jit_cycles, jit_result] = run(SimBackend::kJit);
  EXPECT_EQ(event_cycles, sweep_cycles);
  EXPECT_EQ(event_result, sweep_result);
  EXPECT_EQ(event_cycles, jit_cycles);
  EXPECT_EQ(event_result, jit_result);
  EXPECT_NE(event_result, 0u);
}

TEST(SimEngineDifferential, LazySettleKeepsObservableSemantics) {
  // Counter with enable: repeated settles without input changes are no-ops,
  // and outputs stay fresh right after step() without extra eval_comb calls.
  Module m("counter");
  const WireId en = m.add_wire(1, "en");
  m.add_input(en, "en");
  const WireId d = m.add_wire(8, "d");
  const WireId q = m.make_register(d, en, 0, "q");
  const WireId one = m.make_const(1, 8);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {q, one};
  add.outputs = {d};
  m.add_cell(add);
  m.add_output(q, "q");

  for (SimBackend backend :
       {SimBackend::kEvent, SimBackend::kSweep, SimBackend::kJit}) {
    Simulator sim(m, SimOptions{.backend = backend});
    ASSERT_TRUE(sim.status().ok());
    sim.set_input("en", 1);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(sim.get_output("q"), static_cast<std::uint64_t>(i))
          << to_string(backend);
      sim.eval_comb();
      sim.eval_comb();  // redundant settles must not disturb state
      sim.step();
    }
    sim.set_input("en", 0);
    sim.step();
    sim.step();
    EXPECT_EQ(sim.get_output("q"), 5u) << to_string(backend);
    EXPECT_EQ(sim.cycles(), 7u) << to_string(backend);
  }
}

// A name that is not a port is an error on every engine, never a read at
// kNoWire: the assert that guarded these lookups is compiled out in Release.
TEST(SimPorts, UnknownPortNamesAreChecked) {
  Module m("ports");
  const WireId in = m.add_wire(1, "in");
  m.add_input(in, "in");
  m.add_output(in, "out");

  for (SimBackend backend :
       {SimBackend::kEvent, SimBackend::kSweep, SimBackend::kJit}) {
    SimOptions options;
    options.backend = backend;
    Simulator sim(m, options);
    ASSERT_TRUE(sim.status().ok());
    EXPECT_THROW((void)sim.get_output("missing"), std::out_of_range);
    const Result<std::uint64_t> ran = sim.run_until("missing", 4);
    EXPECT_EQ(ran.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(sim.cycles(), 0u);
    sim.set_input("in", 1);
    EXPECT_EQ(sim.run_until("out", 4).value(), 0u);
  }

  SlicedSimulator sliced(m);
  ASSERT_TRUE(sliced.status().ok());
  EXPECT_THROW((void)sliced.get_output_lane("missing", 0), std::out_of_range);
  sliced.set_input("in", 1);
  sliced.step();
  EXPECT_EQ(sliced.get_output_lane("out", 5), 1u);
}

}  // namespace
}  // namespace hermes::hw

namespace hermes {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(997, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
  // Degenerate counts.
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, BackToBackSubmissions) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(17, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    ASSERT_EQ(sum.load(), 17 * 18 / 2);
  }
}

}  // namespace
}  // namespace hermes

namespace hermes::fault {
namespace {

void expect_same_report(const ScrubReport& a, const ScrubReport& b) {
  EXPECT_EQ(a.injected_upsets, b.injected_upsets);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.detected_uncorrectable, b.detected_uncorrectable);
  EXPECT_EQ(a.silent_corruptions, b.silent_corruptions);
}

TEST(Campaign, ScrubParallelBitIdenticalToSerial) {
  ScrubCampaignPlan plan;
  plan.replicas = 6;
  plan.memory_words = 512;
  plan.intervals = 4;
  plan.seu.upset_probability_per_word = 2e-3;
  plan.seu.mbu_probability = 0.1;

  for (Protection protection :
       {Protection::kNone, Protection::kEdac, Protection::kTmr}) {
    plan.protection = protection;
    ThreadPool serial(0);
    ThreadPool threaded(3);
    const ScrubCampaignResult a = run_scrub_campaign(plan, &serial);
    const ScrubCampaignResult b = run_scrub_campaign(plan, &threaded);
    ASSERT_EQ(a.per_replica.size(), b.per_replica.size());
    for (std::size_t i = 0; i < a.per_replica.size(); ++i) {
      expect_same_report(a.per_replica[i], b.per_replica[i]);
    }
    expect_same_report(a.total, b.total);
    EXPECT_GT(a.total.injected_upsets, 0u);
  }
}

hw::Module make_counter_module() {
  hw::Module m("campaign_counter");
  const hw::WireId one = m.make_const(1, 1);
  const hw::WireId d = m.add_wire(8, "d");
  const hw::WireId q = m.make_register(d, one, 0, "q");
  const hw::WireId inc = m.make_const(1, 8);
  hw::Cell add;
  add.kind = hw::CellKind::kAdd;
  add.inputs = {q, inc};
  add.outputs = {d};
  m.add_cell(std::move(add));
  m.add_output(q, "q");
  return m;
}

TEST(Campaign, NetlistSeuParallelBitIdenticalToSerial) {
  const hw::Module module = make_counter_module();
  NetlistSeuPlan plan;
  plan.replicas = 12;
  plan.cycles_before = 3;
  plan.cycles_after = 8;

  ThreadPool serial(0);
  ThreadPool threaded(4);
  const NetlistSeuResult a = run_netlist_seu_campaign(module, plan, &serial);
  const NetlistSeuResult b = run_netlist_seu_campaign(module, plan, &threaded);
  ASSERT_EQ(a.per_replica.size(), b.per_replica.size());
  for (std::size_t i = 0; i < a.per_replica.size(); ++i) {
    EXPECT_EQ(a.per_replica[i].target, b.per_replica[i].target);
    EXPECT_EQ(a.per_replica[i].bit, b.per_replica[i].bit);
    EXPECT_EQ(a.per_replica[i].diverged, b.per_replica[i].diverged);
    EXPECT_EQ(a.per_replica[i].first_divergence_cycle,
              b.per_replica[i].first_divergence_cycle);
  }
  EXPECT_EQ(a.diverged, b.diverged);
  // Flipping a bit of the sole counter register always corrupts its count.
  EXPECT_EQ(a.diverged, plan.replicas);
  for (const NetlistSeuOutcome& outcome : a.per_replica) {
    EXPECT_EQ(outcome.first_divergence_cycle, 0u);
  }
}

// A campaign on a netlist no replica could simulate reports that, not a
// clean result: both runners used to return 0 diverged of `replicas`.
TEST(Campaign, NetlistSeuReportsRejectedModule) {
  hw::Module looped("comb_loop");
  const hw::WireId a = looped.add_wire(8, "a");
  const hw::WireId b = looped.add_wire(8, "b");
  const hw::WireId one = looped.make_const(1, 8);
  for (const auto& [in, out] : {std::pair{a, b}, std::pair{b, a}}) {
    hw::Cell add;
    add.kind = hw::CellKind::kAdd;
    add.inputs = {in, one};
    add.outputs = {out};
    looped.add_cell(std::move(add));
  }
  looped.add_output(a, "a");
  ASSERT_FALSE(hw::Simulator(looped).status().ok());

  NetlistSeuPlan plan;
  plan.replicas = 70;  // two sliced batches
  ThreadPool threaded(2);
  for (const NetlistSeuResult& result :
       {run_netlist_seu_campaign(looped, plan, &threaded),
        run_netlist_seu_campaign_sliced(looped, plan, &threaded)}) {
    EXPECT_FALSE(result.status.ok());
    EXPECT_TRUE(result.per_replica.empty());
    EXPECT_EQ(result.diverged, 0u);
  }
}

// Driving a name that is not an input port is an argument error, found
// before any worker runs (set_input used to throw inside a pool worker,
// which ended the process).
TEST(Campaign, NetlistSeuRejectsPlanInputThatIsNotAnInputPort) {
  const hw::Module module = make_counter_module();
  ThreadPool threaded(2);
  for (const char* name : {"start", "q"}) {  // absent; an output port
    NetlistSeuPlan plan;
    plan.replicas = 4;
    plan.inputs = {{name, 1}};
    for (const NetlistSeuResult& result :
         {run_netlist_seu_campaign(module, plan, &threaded),
          run_netlist_seu_campaign_sliced(module, plan, &threaded)}) {
      EXPECT_EQ(result.status.code(), ErrorCode::kInvalidArgument) << name;
      EXPECT_TRUE(result.per_replica.empty()) << name;
    }
  }
  NetlistSeuPlan ok_plan;
  ok_plan.replicas = 4;
  const NetlistSeuResult result =
      run_netlist_seu_campaign_sliced(module, ok_plan, &threaded);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.diverged, ok_plan.replicas);
}

}  // namespace
}  // namespace hermes::fault

namespace hermes::hls {
namespace {

TEST(Eucalyptus, ParallelSweepIdenticalToSerial) {
  const TechLibrary lib(ng_ultra());
  SweepConfig config;
  config.widths = {8, 32};
  config.pipeline_stages = {0, 2};
  config.clock_periods_ns = {4.0, 10.0};

  ThreadPool serial(0);
  ThreadPool threaded(4);
  const auto a = run_sweep(lib, config, &serial);
  const auto b = run_sweep(lib, config, &threaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].pipeline_stages, b[i].pipeline_stages);
    EXPECT_EQ(a[i].clock_period_ns, b[i].clock_period_ns);
    EXPECT_EQ(a[i].delay_ns, b[i].delay_ns);
    EXPECT_EQ(a[i].latency, b[i].latency);
    EXPECT_EQ(a[i].meets_timing, b[i].meets_timing);
    EXPECT_EQ(a[i].fmax_mhz, b[i].fmax_mhz);
    EXPECT_EQ(a[i].cost.luts, b[i].cost.luts);
    EXPECT_EQ(a[i].cost.ffs, b[i].cost.ffs);
  }
}

}  // namespace
}  // namespace hermes::hls
