// Tests for the netlist model, cycle-accurate simulator, Verilog emitter and
// VCD tracer.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/kernels.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"
#include "hw/vcd.hpp"
#include "hw/verilog.hpp"
#include "netlist_fuzz.hpp"

namespace hermes::hw {
namespace {

TEST(Netlist, WiresAndPorts) {
  Module m("top");
  const WireId a = m.add_wire(8, "a");
  const WireId b = m.add_wire(1);
  m.add_input(a, "a");
  m.add_output(b, "b");
  EXPECT_EQ(m.wire_width(a), 8u);
  EXPECT_EQ(m.port_wire("a"), a);
  EXPECT_EQ(m.port_wire("nope"), kNoWire);
  EXPECT_TRUE(m.validate().ok());
}

TEST(Netlist, DetectsMultipleDrivers) {
  Module m("bad");
  const WireId a = m.add_wire(8);
  Cell c1;
  c1.kind = CellKind::kConst;
  c1.outputs = {a};
  m.add_cell(c1);
  m.add_cell(c1);  // same output again
  EXPECT_FALSE(m.validate().ok());
}

TEST(Netlist, DetectsBadMuxSelect) {
  Module m("bad");
  const WireId sel = m.add_wire(2);
  const WireId x = m.make_const(0, 8);
  const WireId y = m.make_const(1, 8);
  Cell mux;
  mux.kind = CellKind::kMux;
  mux.inputs = {sel, x, y};
  mux.outputs = {m.add_wire(8)};
  m.add_cell(mux);
  EXPECT_FALSE(m.validate().ok());
}

TEST(Netlist, StatsCounting) {
  Module m("stats");
  const WireId a = m.make_const(1, 32);
  const WireId b = m.make_const(2, 32);
  m.make_binop(CellKind::kAdd, a, b, 32);
  m.make_binop(CellKind::kMul, a, b, 32);
  m.make_binop(CellKind::kDivU, a, b, 32);
  const WireId en = m.make_const(1, 1);
  m.make_register(a, en, 0);
  Memory mem;
  mem.width = 16;
  mem.depth = 32;
  mem.name = "buf";
  m.add_memory(mem);
  const NetlistStats stats = m.stats();
  EXPECT_EQ(stats.arithmetic, 3u);
  EXPECT_EQ(stats.multipliers, 1u);
  EXPECT_EQ(stats.dividers, 1u);
  EXPECT_EQ(stats.registers, 1u);
  EXPECT_EQ(stats.register_bits, 32u);
  EXPECT_EQ(stats.memory_bits, 512u);
}

// ---- simulator semantics, parameterized over operators ----

struct OpCase {
  CellKind kind;
  unsigned width;
  std::uint64_t a, b, expect;
};

// Names each case by its fields: gtest's default byte dump would include the
// struct's uninitialized padding, which changes the test name run to run.
void PrintTo(const OpCase& c, std::ostream* os) {
  *os << to_string(c.kind) << " w" << c.width << " " << c.a << " " << c.b;
}

class SimBinop : public ::testing::TestWithParam<OpCase> {};

TEST_P(SimBinop, Evaluates) {
  const OpCase& c = GetParam();
  Module m("op");
  const WireId a = m.add_wire(c.width, "a");
  const WireId b = m.add_wire(c.width, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const unsigned out_width =
      (c.kind == CellKind::kEq || c.kind == CellKind::kNe ||
       c.kind == CellKind::kLtU || c.kind == CellKind::kLtS ||
       c.kind == CellKind::kLeU || c.kind == CellKind::kLeS)
          ? 1
          : c.width;
  const WireId out = m.make_binop(c.kind, a, b, out_width, "out");
  m.add_output(out, "out");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("a", c.a);
  sim.set_input("b", c.b);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("out"), c.expect)
      << to_string(c.kind) << " w" << c.width;
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, SimBinop,
    ::testing::Values(
        OpCase{CellKind::kAdd, 8, 200, 100, 44},       // wraps at 8 bits
        OpCase{CellKind::kSub, 8, 10, 20, 246},        // wraps negative
        OpCase{CellKind::kMul, 16, 300, 300, 90000 & 0xFFFF},
        OpCase{CellKind::kDivU, 32, 100, 7, 14},
        OpCase{CellKind::kDivU, 32, 100, 0, 0xFFFFFFFFull},  // div-by-zero
        OpCase{CellKind::kDivS, 8, 0xF0, 3, 0xFBu},    // -16/3 = -5 -> 0xFB
        OpCase{CellKind::kRemU, 32, 100, 7, 2},
        OpCase{CellKind::kRemU, 32, 100, 0, 100},      // rem-by-zero
        OpCase{CellKind::kRemS, 8, 0xF0, 7, 0xFEu}));  // -16%7 = -2

INSTANTIATE_TEST_SUITE_P(
    Logic, SimBinop,
    ::testing::Values(OpCase{CellKind::kAnd, 8, 0xF0, 0x3C, 0x30},
                      OpCase{CellKind::kOr, 8, 0xF0, 0x0C, 0xFC},
                      OpCase{CellKind::kXor, 8, 0xFF, 0x0F, 0xF0},
                      OpCase{CellKind::kShl, 16, 0x00FF, 4, 0x0FF0},
                      OpCase{CellKind::kShrU, 16, 0x8000, 15, 0x0001},
                      OpCase{CellKind::kShrS, 8, 0x80, 3, 0xF0}));

INSTANTIATE_TEST_SUITE_P(
    Compare, SimBinop,
    ::testing::Values(OpCase{CellKind::kEq, 32, 5, 5, 1},
                      OpCase{CellKind::kNe, 32, 5, 6, 1},
                      OpCase{CellKind::kLtU, 8, 0x80, 0x7F, 0},   // unsigned
                      OpCase{CellKind::kLtS, 8, 0x80, 0x7F, 1},   // signed
                      OpCase{CellKind::kLeU, 8, 7, 7, 1},
                      OpCase{CellKind::kLeS, 8, 0xFF, 0, 1}));    // -1 <= 0

TEST(Sim, RegisterHoldsAndEnables) {
  Module m("reg");
  const WireId d = m.add_wire(8, "d");
  const WireId en = m.add_wire(1, "en");
  m.add_input(d, "d");
  m.add_input(en, "en");
  const WireId q = m.make_register(d, en, 0x55, "q");
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  EXPECT_EQ(sim.get_output("q"), 0x55u);  // reset value
  sim.set_input("d", 0xAA);
  sim.set_input("en", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0x55u);  // enable low: held
  sim.set_input("en", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0xAAu);  // captured
  sim.set_input("d", 0x11);
  sim.set_input("en", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0xAAu);  // held again
}

TEST(Sim, SyncRamReadWriteFirstSemantics) {
  Module m("ram");
  Memory mem;
  mem.name = "buf";
  mem.width = 16;
  mem.depth = 8;
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.add_wire(3, "addr");
  const WireId data = m.add_wire(16, "data");
  const WireId wen = m.add_wire(1, "wen");
  const WireId ren = m.add_wire(1, "ren");
  m.add_input(addr, "addr");
  m.add_input(data, "data");
  m.add_input(wen, "wen");
  m.add_input(ren, "ren");
  const WireId rdata = m.make_ram_read(mi, addr, ren, "rdata");
  m.make_ram_write(mi, addr, data, wen);
  m.add_output(rdata, "rdata");

  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  // Simultaneous read+write to the same address: write-first.
  sim.set_input("addr", 3);
  sim.set_input("data", 0xBEEF);
  sim.set_input("wen", 1);
  sim.set_input("ren", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0xBEEFu);
  EXPECT_EQ(sim.read_memory(mi, 3), 0xBEEFu);
  // Read-only on another address.
  sim.write_memory(mi, 5, 0x1234);
  sim.set_input("addr", 5);
  sim.set_input("wen", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0x1234u);
  // Disabled read holds the old value.
  sim.set_input("addr", 3);
  sim.set_input("ren", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("rdata"), 0x1234u);
}

TEST(Sim, MemoryInitImage) {
  Module m("rom");
  Memory mem;
  mem.name = "table";
  mem.width = 8;
  mem.depth = 4;
  mem.init = {10, 20, 30, 40};
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.add_wire(2, "addr");
  m.add_input(addr, "addr");
  const WireId one = m.make_const(1, 1);
  const WireId rdata = m.make_ram_read(mi, addr, one, "rdata");
  m.add_output(rdata, "rdata");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  for (std::uint64_t i = 0; i < 4; ++i) {
    sim.set_input("addr", i);
    sim.step();
    EXPECT_EQ(sim.get_output("rdata"), (i + 1) * 10);
  }
}

TEST(Sim, DetectsCombinationalLoop) {
  Module m("loop");
  const WireId a = m.add_wire(1, "a");
  const WireId b = m.add_wire(1, "b");
  // a = not b; b = not a  -> loop.
  Cell n1;
  n1.kind = CellKind::kNot;
  n1.inputs = {b};
  n1.outputs = {a};
  m.add_cell(n1);
  Cell n2;
  n2.kind = CellKind::kNot;
  n2.inputs = {a};
  n2.outputs = {b};
  m.add_cell(n2);
  Simulator sim(m);
  EXPECT_FALSE(sim.status().ok());
  EXPECT_EQ(sim.status().code(), ErrorCode::kInternal);
}

TEST(Sim, RunUntilTimesOut) {
  Module m("never");
  const WireId never = m.make_const(0, 1, "done");
  m.add_output(never, "done");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  auto result = sim.run_until("done", 100);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kDeadlineExceeded);
}

TEST(Sim, CounterCircuit) {
  // 4-bit counter: q <= q + 1 each cycle; wraps at 16.
  Module m("counter");
  const WireId one1 = m.make_const(1, 1);
  const WireId d_placeholder = m.add_wire(4, "d");
  const WireId q = m.make_register(d_placeholder, one1, 0, "q");
  const WireId one4 = m.make_const(1, 4);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {q, one4};
  add.outputs = {d_placeholder};
  m.add_cell(add);
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(sim.get_output("q"), i % 16);
    sim.step();
  }
  EXPECT_EQ(sim.cycles(), 40u);
}

TEST(Sim, SliceConcatZextSext) {
  Module m("bits");
  const WireId in = m.add_wire(16, "in");
  m.add_input(in, "in");
  const WireId hi = m.make_slice(in, 8, 8, "hi");
  const WireId lo = m.make_slice(in, 0, 8, "lo");
  const WireId swapped = m.make_concat({hi, lo}, "swapped");
  const WireId extended = m.make_sext(lo, 16, "sext");
  const WireId zext = m.make_zext(lo, 16, "zext");
  m.add_output(swapped, "swapped");
  m.add_output(extended, "sext");
  m.add_output(zext, "zext");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("in", 0x12F0);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("swapped"), 0xF012u);
  EXPECT_EQ(sim.get_output("sext"), 0xFFF0u);
  EXPECT_EQ(sim.get_output("zext"), 0x00F0u);
}

TEST(Verilog, EmitsStructuralElements) {
  Module m("accel");
  const WireId a = m.add_wire(32, "a");
  m.add_input(a, "a");
  const WireId c = m.make_const(7, 32);
  const WireId sum = m.make_binop(CellKind::kAdd, a, c, 32, "sum");
  const WireId en = m.make_const(1, 1);
  const WireId q = m.make_register(sum, en, 0, "q");
  m.add_output(q, "result");
  Memory mem;
  mem.name = "scratch";
  mem.width = 32;
  mem.depth = 16;
  mem.dual_port = true;
  m.add_memory(mem);

  const std::string verilog = emit_verilog(m);
  EXPECT_NE(verilog.find("module accel("), std::string::npos);
  EXPECT_NE(verilog.find("input wire clk"), std::string::npos);
  EXPECT_NE(verilog.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(verilog.find("True Dual-Port RAM"), std::string::npos);
  EXPECT_NE(verilog.find("endmodule"), std::string::npos);
}

TEST(Vcd, RecordsChanges) {
  Module m("counter");
  const WireId one = m.make_const(1, 1);
  const WireId d = m.add_wire(4, "d");
  const WireId q = m.make_register(d, one, 0, "q");
  const WireId inc = m.make_const(1, 4);
  Cell add;
  add.kind = CellKind::kAdd;
  add.inputs = {q, inc};
  add.outputs = {d};
  m.add_cell(add);
  m.add_output(q, "q");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  VcdTrace trace(m, {q});
  for (int i = 0; i < 4; ++i) {
    trace.sample(sim);
    sim.step();
  }
  const std::string vcd = trace.str();
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("b0011"), std::string::npos);  // q reaches 3
}

// Randomized property: simulator addition matches 64-bit reference under
// truncation, across widths.
class SimWidthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimWidthSweep, AddMatchesReference) {
  const unsigned width = GetParam();
  Module m("w");
  const WireId a = m.add_wire(width, "a");
  const WireId b = m.add_wire(width, "b");
  m.add_input(a, "a");
  m.add_input(b, "b");
  const WireId out = m.make_binop(CellKind::kAdd, a, b, width, "out");
  m.add_output(out, "out");
  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  Rng rng(width);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t x = rng.next_u64();
    const std::uint64_t y = rng.next_u64();
    sim.set_input("a", x);
    sim.set_input("b", y);
    sim.eval_comb();
    EXPECT_EQ(sim.get_output("out"),
              truncate(truncate(x, width) + truncate(y, width), width));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimWidthSweep,
                         ::testing::Values(1u, 7u, 8u, 16u, 24u, 32u, 48u, 64u));

}  // namespace
}  // namespace hermes::hw

// Dead-cell sweep tests appended as a separate suite.
namespace hermes::hw {
namespace {

TEST(SweepDeadCells, RemovesUnusedLogicTransitively) {
  Module m("sweep");
  const WireId a = m.add_wire(8, "a");
  m.add_input(a, "a");
  // Live path: out = a + 1.
  const WireId one = m.make_const(1, 8);
  const WireId live = m.make_binop(CellKind::kAdd, a, one, 8, "live");
  m.add_output(live, "out");
  // Dead chain: d2 consumes d1; nothing consumes d2 -> both go, and the
  // const feeding only them goes on the second sweep iteration.
  const WireId c = m.make_const(7, 8);
  const WireId d1 = m.make_binop(CellKind::kXor, a, c, 8, "d1");
  m.make_binop(CellKind::kAnd, d1, c, 8, "d2");
  // Dead register (and the enable const that only it uses).
  const WireId en = m.make_const(1, 1, "dead_en");
  m.make_register(a, en, 0, "dead_reg");

  const std::size_t before = m.cells().size();
  const std::size_t removed = sweep_dead_cells(m);
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(m.cells().size(), before - removed);
  EXPECT_TRUE(m.validate().ok());

  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("a", 41);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("out"), 42u);
}

TEST(SweepDeadCells, DropsDanglingWiresAndKeepsOrder) {
  Module m("wires");
  const WireId a = m.add_wire(8, "a");
  m.add_input(a, "a");
  m.add_wire(3, "never_used");
  const WireId unused_in = m.add_wire(4, "unused_in");
  m.add_input(unused_in, "unused_in");  // ports keep their wires
  const WireId dead = m.make_not(a, "dead");
  m.make_binop(CellKind::kAnd, dead, a, 8, "dead_tail");
  const WireId live = m.make_not(a, "live");
  m.add_output(live, "out");

  EXPECT_EQ(sweep_dead_cells(m), 2u);
  ASSERT_EQ(m.wire_count(), 3u);
  EXPECT_EQ(m.wire_name(0), "a");
  EXPECT_EQ(m.wire_name(1), "unused_in");
  EXPECT_EQ(m.wire_name(2), "live");
  EXPECT_EQ(m.wire_width(1), 4u);
  EXPECT_EQ(m.port_wire("unused_in"), 1u);
  EXPECT_EQ(m.port_wire("out"), 2u);
  ASSERT_EQ(m.cells().size(), 1u);
  EXPECT_EQ(m.cells()[0].inputs, std::vector<WireId>{0});
  EXPECT_EQ(m.cells()[0].outputs, std::vector<WireId>{2});
  EXPECT_TRUE(m.validate().ok());

  const std::uint64_t digest = m.digest();
  EXPECT_EQ(sweep_dead_cells(m), 0u);
  EXPECT_EQ(m.digest(), digest) << "a swept netlist is a fixed point";

  Simulator sim(m);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("a", 0x0F);
  sim.eval_comb();
  EXPECT_EQ(sim.get_output("out"), 0xF0u);
}

TEST(SweepDeadCells, KeepsRamWritesAndTheirCone) {
  Module m("ramkeep");
  Memory mem;
  mem.name = "buf";
  mem.width = 8;
  mem.depth = 4;
  const std::size_t mi = m.add_memory(mem);
  const WireId addr = m.make_const(2, 2);
  const WireId data = m.make_const(0xAB, 8);
  const WireId en = m.make_const(1, 1);
  m.make_ram_write(mi, addr, data, en);
  EXPECT_EQ(sweep_dead_cells(m), 0u) << "stores and their operands are live";
  Simulator sim(m);
  sim.step();
  EXPECT_EQ(sim.read_memory(mi, 2), 0xABu);
}

TEST(SweepDeadCells, NoOpOnFullyLiveNetlist) {
  Module m("live");
  const WireId a = m.add_wire(4, "a");
  m.add_input(a, "a");
  const WireId one = m.make_const(1, 1);
  const WireId q = m.make_register(a, one, 0, "q");
  m.add_output(q, "q");
  EXPECT_EQ(sweep_dead_cells(m), 0u);
}

/// Rebuilds `module` with only the wires a cell or a port references, in
/// their original order.
void reference_compact_wires(Module& module) {
  std::vector<bool> referenced(module.wire_count(), false);
  for (const Port& port : module.ports()) referenced[port.wire] = true;
  for (const Cell& cell : module.cells()) {
    for (WireId wire : cell.inputs) referenced[wire] = true;
    for (WireId wire : cell.outputs) referenced[wire] = true;
  }
  Module compact(module.name());
  std::vector<WireId> renumbered(module.wire_count(), kNoWire);
  for (WireId wire = 0; wire < module.wire_count(); ++wire) {
    if (referenced[wire]) {
      renumbered[wire] =
          compact.add_wire(module.wire_width(wire), module.wire_name(wire));
    }
  }
  for (const Port& port : module.ports()) {
    if (port.is_input) {
      compact.add_input(renumbered[port.wire], port.name);
    } else {
      compact.add_output(renumbered[port.wire], port.name);
    }
  }
  for (const Memory& memory : module.memories()) compact.add_memory(memory);
  for (Cell cell : module.cells()) {
    for (WireId& wire : cell.inputs) wire = renumbered[wire];
    for (WireId& wire : cell.outputs) wire = renumbered[wire];
    compact.add_cell(std::move(cell));
  }
  module = std::move(compact);
}

// The sweep as it was before the worklist pass: whole-netlist passes, each
// removing every cell nothing reads, until a pass removes none; then the
// wires nothing references are dropped.
std::size_t reference_sweep(Module& module) {
  std::size_t removed_total = 0;
  while (true) {
    std::vector<bool> used(module.wire_count(), false);
    for (const Port& port : module.ports()) {
      if (!port.is_input) used[port.wire] = true;
    }
    for (const Cell& cell : module.cells()) {
      for (WireId wire : cell.inputs) used[wire] = true;
    }
    std::vector<Cell> kept;
    std::size_t removed = 0;
    for (const Cell& cell : module.cells()) {
      bool drives_something = cell.kind == CellKind::kRamWrite;
      for (WireId wire : cell.outputs) {
        if (used[wire]) drives_something = true;
      }
      if (drives_something) {
        kept.push_back(cell);
      } else {
        ++removed;
      }
    }
    if (removed == 0) break;
    removed_total += removed;
    module.replace_cells(std::move(kept));
  }
  reference_compact_wires(module);
  return removed_total;
}

/// Appends logic only the fixed point handles right: dead chains (one reads
/// a wire twice), a dead two-cell cycle with a dead tail, and a dead
/// self-looped register. The cycles must survive; the chains and tail die.
void add_dead_structures(Rng& rng, Module& m) {
  const WireId seed_wire = m.port_wire("in0");
  for (int chain = 0; chain < 3; ++chain) {
    WireId w = rng.next_bool(0.5) ? seed_wire : m.make_const(rng.next_u64(), 8);
    const int depth = 1 + static_cast<int>(rng.next_below(6));
    for (int d = 0; d < depth; ++d) {
      w = rng.next_bool(0.5) ? m.make_not(w)
                             : m.make_binop(CellKind::kAdd, w, w, 8);
    }
  }
  const WireId c = m.make_const(3, 8);
  const WireId x = m.add_wire(8, "cyc_x");
  const WireId y = m.make_binop(CellKind::kXor, x, c, 8, "cyc_y");
  Cell back;
  back.kind = CellKind::kAdd;
  back.inputs = {y, c};
  back.outputs = {x};
  m.add_cell(std::move(back));
  m.make_not(m.make_not(y));  // dead tail off the cycle
  const WireId q = m.add_wire(4, "self_q");
  Cell reg;
  reg.kind = CellKind::kRegister;
  reg.inputs = {q, m.port_wire("en0")};
  reg.outputs = {q};
  m.add_cell(std::move(reg));
}

/// Sweeps a copy of `module` both ways, expects the same removed count, the
/// same kept cells in the same order and the same wire table, and returns
/// the swept copy.
Module expect_sweep_matches_reference(const Module& module,
                                      const std::string& label) {
  Module got = module;
  Module want = module;
  EXPECT_EQ(sweep_dead_cells(got), reference_sweep(want)) << label;
  EXPECT_EQ(got.digest(), want.digest()) << label;
  EXPECT_EQ(got.cells().size(), want.cells().size()) << label;
  EXPECT_EQ(got.wire_count(), want.wire_count()) << label;
  for (std::size_t c = 0; c < std::min(got.cells().size(), want.cells().size()); ++c) {
    EXPECT_EQ(got.cells()[c].name, want.cells()[c].name) << label << " cell " << c;
  }
  return got;
}

TEST(SweepDeadCells, MatchesFixpointReference) {
  Rng rng(0x5eeb);
  for (int index = 0; index < 40; ++index) {
    fuzz::RandomDesign design = fuzz::make_random_design(rng, index, "sweep");
    expect_sweep_matches_reference(design.module, "fuzz" + std::to_string(index));
    add_dead_structures(rng, design.module);
    const Module swept = expect_sweep_matches_reference(
        design.module, "dead" + std::to_string(index));
    EXPECT_LT(swept.cells().size(), design.module.cells().size());
    bool cycle_kept = false, self_loop_kept = false;
    for (const Cell& cell : swept.cells()) {
      for (WireId wire : cell.outputs) {
        if (swept.wire_name(wire) == "cyc_x") cycle_kept = true;
        if (swept.wire_name(wire) == "self_q") self_loop_kept = true;
      }
    }
    EXPECT_TRUE(cycle_kept && self_loop_kept) << "dead cycles stay";
  }
  for (const apps::KernelSpec& kernel : apps::all_kernels()) {
    hls::FlowOptions options;
    options.top = kernel.name;
    auto flow = hls::run_flow(kernel.source, options);
    ASSERT_TRUE(flow.ok()) << kernel.name;
    expect_sweep_matches_reference(flow.value().fsmd.module, kernel.name);
  }
}

TEST(SweepDeadCells, HlsOutputIsAlreadyLiveAndCorrect) {
  hls::FlowOptions options;
  options.top = "f";
  auto flow = hls::run_flow(
      "int f(int a, int b) { return a * 2 + b / 3; }", options);
  ASSERT_TRUE(flow.ok());
  hw::Module module = flow.value().fsmd.module;  // copy to mutate
  EXPECT_EQ(sweep_dead_cells(module), 0u);
  EXPECT_EQ(module.digest(), flow.value().fsmd.module.digest());
  EXPECT_TRUE(module.validate().ok());
  Simulator sim(module);
  ASSERT_TRUE(sim.status().ok());
  sim.set_input("arg_a", 10);
  sim.set_input("arg_b", 9);
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", 100'000);
  ASSERT_TRUE(cycles.ok());
  EXPECT_EQ(sim.get_output("return_value"), 23u);
}

}  // namespace
}  // namespace hermes::hw
