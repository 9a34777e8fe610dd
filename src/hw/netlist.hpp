// RTL netlist model.
//
// The HLS back-end (Bambu-style FSMD generation) emits designs into this
// in-memory netlist of word-level macro cells. The same netlist is (a)
// executed cycle-accurately by hw::Simulator — standing in for the Verilog
// simulation Bambu testbenches drive, (b) printed as synthesizable Verilog by
// hw::emit_verilog, and (c) technology-mapped onto the NG-ULTRA fabric by the
// nxmap backend.
//
// Conventions:
//  * every wire carries an unsigned value of an explicit width in [1, 64];
//    signedness is a property of the operator (kDivS vs kDivU, ...) not the wire;
//  * a single implicit clock and synchronous active-high reset drive all
//    sequential cells (registers and RAM ports);
//  * division/remainder by zero produce all-ones / the dividend respectively
//    (matching the IR interpreter golden model).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"

namespace hermes::hw {

using WireId = std::uint32_t;
inline constexpr WireId kNoWire = ~static_cast<WireId>(0);

/// Word-level cell kinds. Comb cells compute outputs from inputs within a
/// cycle; kRegister / kRamRead / kRamWrite are sequential.
#define HERMES_CELL_KINDS(X)                                                  \
  /* outputs[0] = param (no inputs) */                                        \
  X(kConst, "const")                                                          \
  X(kAdd, "add") X(kSub, "sub") X(kMul, "mul") X(kDivU, "divu")               \
  X(kDivS, "divs") X(kRemU, "remu") X(kRemS, "rems") X(kAnd, "and")           \
  X(kOr, "or") X(kXor, "xor") X(kNot, "not") X(kShl, "shl") X(kShrU, "shru")  \
  X(kShrS, "shrs") X(kEq, "eq") X(kNe, "ne") X(kLtU, "ltu") X(kLtS, "lts")    \
  X(kLeU, "leu") X(kLeS, "les")                                               \
  /* inputs {sel, in0, in1}: out = sel ? in1 : in0 */                         \
  X(kMux, "mux")                                                              \
  /* zero-extend / truncate input to the output width */                      \
  X(kZext, "zext")                                                            \
  /* sign-extend input (width from input wire) to the output width */         \
  X(kSext, "sext")                                                            \
  /* out = input >> param, truncated to output width */                       \
  X(kSlice, "slice")                                                          \
  /* inputs LSB-first; output width = sum of input widths */                  \
  X(kConcat, "concat")                                                        \
  /* inputs {d, en}; outputs {q}; param = reset value */                      \
  X(kRegister, "register")                                                    \
  /* inputs {addr, en}; outputs {data}; param = memory index. Synchronous     \
     read. */                                                                 \
  X(kRamRead, "ram_read")                                                     \
  /* inputs {addr, data, en}; no outputs; param = memory index */             \
  X(kRamWrite, "ram_write")
HERMES_ENUM(CellKind, std::uint8_t, HERMES_CELL_KINDS)

/// True for cells whose outputs change only on the clock edge.
bool is_sequential(CellKind kind);

/// True for pure wiring (const/zext/sext/slice/concat): cells that only
/// rename, tie off or regroup bits, with no logic and no delay.
bool is_wiring(CellKind kind);

class Module;

/// Removes cells whose outputs drive nothing (no cell input, no output
/// port), dead chains included — the dead-logic sweep every synthesis
/// front-end performs before technology mapping. One use-count worklist pass
/// gives the fixed point of repeated single sweeps: same cells removed, kept
/// cells in their original order. RAM writes are effectful and always kept;
/// registers and combinational cells are swept, except on a cycle that
/// keeps itself used. Then every wire that no kept cell and no port
/// references is dropped, and the survivors are renumbered in their
/// original order, so a swept netlist has no dangling wire and sweeping it
/// again changes nothing. Returns the number of cells removed.
std::size_t sweep_dead_cells(Module& module);

struct Cell {
  CellKind kind = CellKind::kConst;
  std::vector<WireId> inputs;
  std::vector<WireId> outputs;
  std::uint64_t param = 0;
  std::string name;  ///< optional instance name (kept for reports/Verilog)
};

struct Port {
  std::string name;
  WireId wire = kNoWire;
  bool is_input = true;
};

/// An embedded memory block. `dual_port` marks it as requiring a True
/// Dual-Port RAM primitive on the NG-ULTRA fabric (two simultaneous
/// read/write ports); nxmap maps it accordingly.
struct Memory {
  std::string name;
  unsigned width = 32;       ///< word width in bits (<= 64)
  std::size_t depth = 0;     ///< number of words
  bool dual_port = false;
  std::vector<std::uint64_t> init;  ///< optional initial contents
};

/// Aggregate cell statistics used by reports and the FIG2 benchmark.
struct NetlistStats {
  std::size_t cells = 0;
  std::size_t registers = 0;
  std::size_t register_bits = 0;
  std::size_t arithmetic = 0;   ///< add/sub/mul/div/rem
  std::size_t multipliers = 0;
  std::size_t dividers = 0;
  std::size_t muxes = 0;
  std::size_t memories = 0;
  std::size_t memory_bits = 0;
};

/// A synthesizable module: wires, ports, cells, memories.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Creates a wire of the given width; name optional (auto-named otherwise).
  WireId add_wire(unsigned width, std::string name = {});
  [[nodiscard]] unsigned wire_width(WireId wire) const { return wire_widths_.at(wire); }
  [[nodiscard]] const std::string& wire_name(WireId wire) const { return wire_names_.at(wire); }
  [[nodiscard]] std::size_t wire_count() const { return wire_widths_.size(); }

  /// Declares an existing wire as a module port.
  void add_input(WireId wire, std::string name);
  void add_output(WireId wire, std::string name);
  [[nodiscard]] const std::vector<Port>& ports() const { return ports_; }
  /// Looks up a port wire by name; kNoWire if absent.
  [[nodiscard]] WireId port_wire(std::string_view name) const;

  std::size_t add_memory(Memory memory);
  [[nodiscard]] const std::vector<Memory>& memories() const { return memories_; }
  [[nodiscard]] Memory& memory(std::size_t index) { return memories_.at(index); }

  /// Raw cell constructor; prefer the typed helpers below.
  std::size_t add_cell(Cell cell);
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  /// Wholesale cell-list replacement.
  void replace_cells(std::vector<Cell> cells) { cells_ = std::move(cells); }
  /// Drops every cell whose `dead` flag is set; the others keep their order
  /// (used by netlist sweeps).
  void erase_cells(const std::vector<bool>& dead);
  /// Drops every wire that no cell and no port references and renumbers the
  /// others in their original order, rewriting cell and port references
  /// (used by netlist sweeps).
  void erase_unreferenced_wires();

  // ---- typed builder helpers (each returns the output wire) ----
  WireId make_const(std::uint64_t value, unsigned width, std::string name = {});
  WireId make_binop(CellKind kind, WireId a, WireId b, unsigned out_width,
                    std::string name = {});
  WireId make_not(WireId a, std::string name = {});
  WireId make_mux(WireId sel, WireId if0, WireId if1, std::string name = {});
  WireId make_zext(WireId a, unsigned out_width, std::string name = {});
  WireId make_sext(WireId a, unsigned out_width, std::string name = {});
  WireId make_slice(WireId a, unsigned lsb, unsigned out_width, std::string name = {});
  WireId make_concat(const std::vector<WireId>& lsb_first, std::string name = {});
  /// Register with synchronous enable and reset value.
  WireId make_register(WireId d, WireId en, std::uint64_t reset_value = 0,
                       std::string name = {});
  /// Synchronous-read RAM port on memory `mem`.
  WireId make_ram_read(std::size_t mem, WireId addr, WireId en, std::string name = {});
  void make_ram_write(std::size_t mem, WireId addr, WireId data, WireId en,
                      std::string name = {});

  [[nodiscard]] NetlistStats stats() const;

  /// Structural FNV-1a digest over everything that affects behavior: wire
  /// widths, port wires/directions, cells (kind, param, connectivity) and
  /// memory shapes/init images. Names are deliberately excluded — two
  /// netlists that differ only in labels simulate identically and may share
  /// a compiled kernel. This is the content-address of the process-wide
  /// jit::KernelCache and the seed of the compile-service caching layer.
  [[nodiscard]] std::uint64_t digest() const;

  /// Structural sanity check: widths consistent, wire ids valid, memory
  /// indices valid, no multiply-driven wires.
  [[nodiscard]] Status validate() const;

 private:
  std::string name_;
  std::vector<unsigned> wire_widths_;
  std::vector<std::string> wire_names_;
  std::vector<Port> ports_;
  std::vector<Cell> cells_;
  std::vector<Memory> memories_;
};

}  // namespace hermes::hw
