// Differential tests for the bit-sliced 64-replica simulator.
//
// The sliced engine packs 64 replicas into slice words; the scalar engine is
// its oracle. The randomized test tracks a handful of lanes with scalar twin
// simulators — same inputs, same per-lane fault injections — and asserts
// every wire and memory word of every tracked lane matches the twin
// bit-for-bit after every settle. Untracked lanes receive fault traffic too,
// so cross-lane isolation is exercised, not just mirrored behavior.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fault/campaign.hpp"
#include "fault/seu.hpp"
#include "hls/flow.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "hw/sim_sliced.hpp"
#include "netlist_fuzz.hpp"

namespace hermes::hw {
namespace {

/// Lanes mirrored by scalar twins: golden lane, low lanes, top lanes.
constexpr unsigned kTracked[] = {0, 1, 5, 62, 63};
constexpr std::size_t kTrackedCount = std::size(kTracked);

using fuzz::RandomDesign;

void expect_lanes_match_twins(const SlicedSimulator& sliced,
                              const std::vector<Simulator>& twins,
                              const RandomDesign& design, int trial,
                              int cycle) {
  for (std::size_t t = 0; t < kTrackedCount; ++t) {
    const unsigned lane = kTracked[t];
    for (WireId w = 0; w < design.module.wire_count(); ++w) {
      ASSERT_EQ(sliced.get_lane(w, lane), twins[t].get(w))
          << "trial " << trial << " cycle " << cycle << " lane " << lane
          << " wire " << design.module.wire_name(w) << " (" << w << ")";
    }
    for (std::size_t mem = 0; mem < design.memory_count; ++mem) {
      const std::size_t depth = design.module.memories()[mem].depth;
      for (std::size_t addr = 0; addr < depth; ++addr) {
        ASSERT_EQ(sliced.read_memory_lane(mem, addr, lane),
                  twins[t].read_memory(mem, addr))
            << "trial " << trial << " cycle " << cycle << " lane " << lane
            << " mem[" << addr << "]";
      }
    }
  }
  // lane_divergence must agree with per-lane value extraction.
  for (WireId w = 0; w < design.module.wire_count(); ++w) {
    const std::uint64_t divergence = sliced.lane_divergence(w);
    ASSERT_EQ(divergence & 1, 0u) << "golden lane flagged divergent";
    const std::uint64_t golden = sliced.get_lane(w, 0);
    for (std::size_t t = 0; t < kTrackedCount; ++t) {
      const unsigned lane = kTracked[t];
      ASSERT_EQ((divergence >> lane) & 1,
                static_cast<std::uint64_t>(sliced.get_lane(w, lane) != golden))
          << "trial " << trial << " cycle " << cycle << " lane " << lane
          << " wire " << design.module.wire_name(w);
    }
  }
}

TEST(SimSlicedDifferential, RandomNetlistsMatchScalarTwinsPerLane) {
  constexpr int kDesigns = 25;
  constexpr int kCyclesPerDesign = 20;
  Rng rng(0x51CED);

  for (int trial = 0; trial < kDesigns; ++trial) {
    RandomDesign design = fuzz::make_random_design(rng, trial, "sliced_rand");
    ASSERT_TRUE(design.module.validate().ok()) << "trial " << trial;

    SlicedSimulator sliced(design.module);
    ASSERT_TRUE(sliced.status().ok()) << sliced.status().message();
    std::vector<Simulator> twins;
    twins.reserve(kTrackedCount);
    for (std::size_t t = 0; t < kTrackedCount; ++t) {
      twins.emplace_back(design.module, SimOptions{});
      ASSERT_TRUE(twins.back().status().ok());
    }
    expect_lanes_match_twins(sliced, twins, design, trial, -1);

    const std::vector<WireId> regs = sliced.register_outputs();
    for (int cycle = 0; cycle < kCyclesPerDesign; ++cycle) {
      for (const std::string& port : design.input_ports) {
        if (rng.next_bool(0.5)) {
          const std::uint64_t value = rng.next_u64();
          sliced.set_input(port, value);
          for (Simulator& twin : twins) twin.set_input(port, value);
        }
      }
      if (rng.next_bool(0.3)) {  // mid-cycle settle must agree too
        sliced.eval_comb();
        for (Simulator& twin : twins) twin.eval_comb();
        expect_lanes_match_twins(sliced, twins, design, trial, cycle);
      }
      if (rng.next_bool(0.5)) {
        // Per-lane SEU: a random lane mask (tracked and untracked lanes
        // alike); each tracked twin mirrors the flip iff its lane is hit.
        const WireId target =
            (!regs.empty() && rng.next_bool(0.7))
                ? regs[rng.next_below(regs.size())]
                : static_cast<WireId>(
                      rng.next_below(design.module.wire_count()));
        const unsigned bit = static_cast<unsigned>(
            rng.next_below(design.module.wire_width(target)));
        const std::uint64_t lane_mask = rng.next_u64();
        sliced.corrupt_wire(target, bit, lane_mask);
        for (std::size_t t = 0; t < kTrackedCount; ++t) {
          if ((lane_mask >> kTracked[t]) & 1) {
            twins[t].corrupt_wire(target, bit);
          }
        }
      }
      if (design.memory_count != 0 && rng.next_bool(0.2)) {
        const Memory& mem = design.module.memories()[0];
        const std::size_t addr = rng.next_below(mem.depth);
        const std::uint64_t value = rng.next_u64();
        sliced.write_memory(0, addr, value);
        for (Simulator& twin : twins) twin.write_memory(0, addr, value);
      }
      sliced.step();
      for (Simulator& twin : twins) twin.step();
      ASSERT_EQ(sliced.cycles(), twins[0].cycles());
      expect_lanes_match_twins(sliced, twins, design, trial, cycle);
    }
  }
}

TEST(SimSlicedDifferential, HlsAcceleratorFaultyLanesMatchScalar) {
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

  SlicedSimulator sliced(module);
  ASSERT_TRUE(sliced.status().ok());
  std::vector<Simulator> twins;
  for (std::size_t t = 0; t < kTrackedCount; ++t) {
    twins.emplace_back(module, SimOptions{});
    ASSERT_TRUE(twins.back().status().ok());
  }
  for (std::size_t i = 0; i < 16; ++i) {
    sliced.write_memory(0, i, i + 1);
    sliced.write_memory(1, i, 2 * i + 1);
    for (Simulator& twin : twins) {
      twin.write_memory(0, i, i + 1);
      twin.write_memory(1, i, 2 * i + 1);
    }
  }
  sliced.set_input("start", 1);
  for (Simulator& twin : twins) twin.set_input("start", 1);

  // Warm up, hit distinct registers on distinct lanes, then run to
  // completion; every tracked lane must match its scalar twin exactly,
  // including the faulty ones.
  const std::vector<WireId> regs = sliced.register_outputs();
  ASSERT_GE(regs.size(), 3u);
  Rng rng(0xD07);
  for (int cycle = 0; cycle < 8; ++cycle) {
    sliced.step();
    for (Simulator& twin : twins) twin.step();
  }
  for (std::size_t t = 1; t < kTrackedCount; ++t) {  // lane 0 stays golden
    const WireId target = regs[rng.next_below(regs.size())];
    const unsigned bit =
        static_cast<unsigned>(rng.next_below(module.wire_width(target)));
    sliced.corrupt_wire(target, bit, 1ULL << kTracked[t]);
    twins[t].corrupt_wire(target, bit);
  }
  for (int cycle = 0; cycle < 300; ++cycle) {
    sliced.step();
    for (Simulator& twin : twins) twin.step();
  }
  ASSERT_EQ(sliced.get_output_lane("done", 0), 1u);
  for (std::size_t t = 0; t < kTrackedCount; ++t) {
    const unsigned lane = kTracked[t];
    EXPECT_EQ(sliced.get_output_lane("done", lane), twins[t].get_output("done"))
        << "lane " << lane;
    EXPECT_EQ(sliced.get_output_lane("return_value", lane),
              twins[t].get_output("return_value"))
        << "lane " << lane;
  }
  EXPECT_NE(sliced.get_output_lane("return_value", 0), 0u);
}

}  // namespace
}  // namespace hermes::hw

namespace hermes::fault {
namespace {

hw::Module make_counter_module() {
  hw::Module m("sliced_campaign_counter");
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

void expect_same_result(const NetlistSeuResult& serial,
                        const NetlistSeuResult& sliced) {
  ASSERT_EQ(serial.per_replica.size(), sliced.per_replica.size());
  for (std::size_t i = 0; i < serial.per_replica.size(); ++i) {
    EXPECT_EQ(serial.per_replica[i].target, sliced.per_replica[i].target)
        << "replica " << i;
    EXPECT_EQ(serial.per_replica[i].bit, sliced.per_replica[i].bit)
        << "replica " << i;
    EXPECT_EQ(serial.per_replica[i].diverged, sliced.per_replica[i].diverged)
        << "replica " << i;
    EXPECT_EQ(serial.per_replica[i].first_divergence_cycle,
              sliced.per_replica[i].first_divergence_cycle)
        << "replica " << i;
  }
  EXPECT_EQ(serial.diverged, sliced.diverged);
  EXPECT_EQ(fingerprint(serial), fingerprint(sliced));
}

TEST(CampaignSliced, ReplicaBatchMathRoundTrips) {
  // The 63-replica grouping must preserve the per-replica seed sequence:
  // replica r always lands in batch r/63, lane 1 + r%63, and the (batch,
  // lane) pair maps back to r — so the sliced runner seeds Rng(replica_seed(
  // base, r)) for exactly the same r values the serial runner does.
  static_assert(kSliceLanes == 64);
  static_assert(kReplicasPerBatch == 63);
  for (std::size_t r = 0; r < 500; ++r) {
    const std::size_t batch = batch_of(r);
    const unsigned lane = lane_of(r);
    EXPECT_GE(lane, 1u);     // lane 0 is reserved for the golden replica
    EXPECT_LE(lane, 63u);
    EXPECT_EQ(replica_at(batch, lane), r);
    EXPECT_LT(batch, batch_count(r + 1));
  }
  EXPECT_EQ(batch_count(0), 0u);
  EXPECT_EQ(batch_count(1), 1u);
  EXPECT_EQ(batch_count(63), 1u);
  EXPECT_EQ(batch_count(64), 2u);
  EXPECT_EQ(batch_count(126), 2u);
  EXPECT_EQ(batch_count(127), 3u);
}

TEST(CampaignSliced, CounterCampaignBitIdenticalToSerial) {
  const hw::Module module = make_counter_module();
  NetlistSeuPlan plan;
  plan.replicas = 150;  // spans three 63-replica batches, last one partial
  plan.cycles_before = 3;
  plan.cycles_after = 8;
  plan.base_seed = 77;

  ThreadPool serial_pool(0);
  ThreadPool threaded(4);
  const NetlistSeuResult serial =
      run_netlist_seu_campaign(module, plan, &serial_pool);
  const NetlistSeuResult sliced_serial =
      run_netlist_seu_campaign_sliced(module, plan, &serial_pool);
  const NetlistSeuResult sliced_threaded =
      run_netlist_seu_campaign_sliced(module, plan, &threaded);
  expect_same_result(serial, sliced_serial);
  expect_same_result(serial, sliced_threaded);
  // Flipping any bit of the sole counter register always diverges.
  EXPECT_EQ(serial.diverged, plan.replicas);
}

TEST(CampaignSliced, HlsAcceleratorCampaignBitIdenticalToSerial) {
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
  const hw::Module& module = flow.value().fsmd.module;

  // 80 replicas cross the first batch boundary; 126 are two full batches
  // with a longer watch window, the plan bench_fault_campaign times.
  NetlistSeuPlan crossing;
  crossing.replicas = 80;
  crossing.cycles_before = 8;
  crossing.cycles_after = 48;
  crossing.base_seed = 5;
  crossing.inputs = {{"start", 1}};
  NetlistSeuPlan full_batches;
  full_batches.replicas = 126;
  full_batches.cycles_before = 8;
  full_batches.cycles_after = 64;
  full_batches.inputs = {{"start", 1}};

  ThreadPool serial_pool(0);
  for (const NetlistSeuPlan& plan : {crossing, full_batches}) {
    SCOPED_TRACE(plan.replicas);
    const NetlistSeuResult serial =
        run_netlist_seu_campaign(module, plan, &serial_pool);
    const NetlistSeuResult sliced =
        run_netlist_seu_campaign_sliced(module, plan, &serial_pool);
    expect_same_result(serial, sliced);
    // A real accelerator must show both masked and propagated upsets for
    // the parity check to mean anything.
    EXPECT_GT(serial.diverged, 0u);
    EXPECT_LT(serial.diverged, plan.replicas);
  }
}

}  // namespace
}  // namespace hermes::fault
