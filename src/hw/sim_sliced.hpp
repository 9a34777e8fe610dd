// Bit-sliced 64-replica netlist simulator.
//
// Fault campaigns run the same netlist many times, where replicas differ only
// in a handful of flipped bits. This engine evaluates 64 replicas at once by
// transposing the data layout: instead of one 64-bit value per wire, a wire
// of width W holds W "slice words", where bit k of slice word b is bit b of
// replica k's value. One machine word op then advances all 64 replicas:
//
//   wire value (scalar engine):   v[b]       = bit b of the one replica
//   wire slices (this engine):    s[b] bit k = bit b of replica k
//
// Bitwise cells (and/or/xor/not/mux/eq/compare/add/sub/extend/slice/concat,
// and shifts by a lane-uniform amount) are evaluated directly in sliced form.
// The remaining cells (mul/div/rem, lane-divergent shifts) fall back to a
// lane-sparse path: evaluate lane 0 once, broadcast, then patch only the
// lanes whose inputs diverge from lane 0 — after a fault injection that is a
// handful of lanes, not 64.
//
// By convention the fault campaigns keep lane 0 fault-free (the golden
// replica); lane_divergence() XORs every lane against lane 0 in one pass, so
// divergence detection and first-divergence extraction are bit scans.
//
// The engine reuses hw::Simulator's compiled representation (op table, fanout
// CSR, levels) and mirrors its event-driven settle; the scalar engine remains
// the differential oracle — per-lane values must match it bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/netlist.hpp"
#include "hw/sim.hpp"

namespace hermes::hw {

class SlicedSimulator {
 public:
  /// Number of replica lanes evaluated per word op.
  static constexpr unsigned kLanes = 64;

  /// Compiles the module (fails on the same conditions as hw::Simulator).
  explicit SlicedSimulator(const Module& module);

  [[nodiscard]] const Status& status() const { return base_.status(); }
  [[nodiscard]] const Module& module() const { return base_.module(); }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  /// Synchronous reset of every lane: registers to reset values, memories to
  /// their init images, cycle counter to 0.
  void reset();

  /// Drives an input port with the same value on all 64 lanes.
  void set_input(std::string_view port_name, std::uint64_t value);

  /// Settles combinational logic (lazy, event-driven over slice words).
  void eval_comb();

  /// One clock cycle for all 64 lanes: settle, commit sequential state,
  /// settle again. Identical two-phase semantics to hw::Simulator::step().
  void step();

  /// Value of `wire` on one lane, reassembled from the slice words. Checked,
  /// as Simulator::get: an unknown wire or port name throws std::out_of_range.
  [[nodiscard]] std::uint64_t get_lane(WireId wire, unsigned lane) const;
  [[nodiscard]] std::uint64_t get_output_lane(std::string_view port_name,
                                              unsigned lane) const;

  /// Lane mask of replicas whose value of `wire` differs from lane 0 (the
  /// golden lane) — the campaign divergence detector. Bit 0 is always 0.
  [[nodiscard]] std::uint64_t lane_divergence(WireId wire) const;

  /// Raw slice words of `wire` (wire_width(wire) of them).
  [[nodiscard]] const std::uint64_t* slices(WireId wire) const {
    return slices_.data() + slice_off_[wire];
  }

  /// Radiation backdoor for one lane: flips bit `bit` of `wire` on exactly
  /// the lanes set in `lane_mask`. Same contract as Simulator::corrupt_wire —
  /// meaningful for sequential outputs, between step()s.
  void corrupt_wire(WireId wire, unsigned bit, std::uint64_t lane_mask);

  /// Backdoor read of one memory word on one lane.
  [[nodiscard]] std::uint64_t read_memory_lane(std::size_t mem,
                                               std::size_t addr,
                                               unsigned lane) const;

  /// Testbench backdoor: writes one memory word on all 64 lanes (matches
  /// Simulator::write_memory applied to every replica).
  void write_memory(std::size_t mem, std::size_t addr, std::uint64_t value);

  /// Output wires of every register cell (same order as hw::Simulator).
  [[nodiscard]] std::vector<WireId> register_outputs() const {
    return base_.register_outputs();
  }

 private:
  // Sequential ops re-compiled with the cached widths the sliced commit
  // needs (the scalar engine reads widths from wire lookups instead).
  struct SlicedReg {
    WireId d = kNoWire, en = kNoWire, q = kNoWire;
    std::uint8_t d_width = 0, en_width = 0, q_width = 0;
    std::uint32_t scratch = 0;  ///< offset of the sampled q' slice words
    std::uint64_t reset_value = 0;
  };
  struct SlicedRamRead {
    WireId addr = kNoWire, en = kNoWire, data = kNoWire;
    std::uint32_t mem = 0;
    std::uint8_t addr_width = 0, en_width = 0, data_width = 0;
    std::uint32_t scratch = 0;  ///< sampled addr words + 1 en_nz word
  };
  struct SlicedRamWrite {
    WireId addr = kNoWire, data = kNoWire, en = kNoWire;
    std::uint32_t mem = 0;
    std::uint8_t addr_width = 0, mem_width = 0;
    std::uint32_t scratch = 0;  ///< sampled addr + data words + 1 en_nz word
  };

  void build_lanes();
  void eval_op_sliced(const CombOp& op, std::uint64_t* out) const;
  void eval_op_fallback(const CombOp& op, std::uint64_t* out) const;
  /// Evaluates `op` and commits its output slices; returns true if any slice
  /// word changed.
  bool apply_op(const CombOp& op);
  void mark_wire_changed(WireId wire);
  void schedule_op(std::uint32_t op_index);
  void schedule_fanout(WireId wire);

  [[nodiscard]] std::uint64_t input_word(const CombOp& op,
                                         std::size_t index, unsigned b) const;
  [[nodiscard]] std::uint64_t extract_lane_raw(const std::uint64_t* words,
                                               unsigned width,
                                               unsigned lane) const;

  Simulator base_;  ///< compiled tables + oracle-compatible schedule

  // Slice storage: wire -> offset of wire_width words in slices_.
  std::vector<std::uint32_t> slice_off_;
  std::vector<std::uint64_t> slices_;

  // Memory slice storage: memory -> offset; word (mem, addr) occupies
  // mem_width consecutive slice words at mem_off_[mem] + addr * mem_width.
  std::vector<std::uint32_t> mem_off_;
  std::vector<std::uint64_t> mem_slices_;

  std::vector<SlicedReg> regs_;
  std::vector<SlicedRamRead> ram_reads_;
  std::vector<SlicedRamWrite> ram_writes_;

  // Event machinery private to this engine (the compiled CSR/levels are
  // borrowed from base_).
  std::vector<std::uint32_t> level_fill_;
  std::vector<std::uint32_t> level_arena_;
  std::vector<std::uint8_t> op_scheduled_;
  bool comb_dirty_ = false;

  // Step scratch (hoisted): sampled sequential inputs, two-phase commit.
  std::vector<std::uint64_t> seq_scratch_;
  std::uint64_t cycles_ = 0;
};

}  // namespace hermes::hw
