// Intermediate representation of the HLS middle-end.
//
// A function is a control-flow graph of basic blocks holding typed
// three-address instructions over an unbounded set of virtual registers
// (non-SSA: registers may be written multiple times; this maps directly onto
// the FSMD model where every virtual register becomes a datapath register).
// Arrays live in named memories accessed by explicit load/store instructions.
//
// This is the representation on which the "front-end, middle-end and
// back-end" optimization passes of the Bambu flow (paper Fig. 2) operate, and
// from which the Control and Data Flow Graph (CDFG) is derived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"

namespace hermes::ir {

using RegId = std::uint32_t;
using BlockId = std::uint32_t;
inline constexpr RegId kNoReg = ~static_cast<RegId>(0);
inline constexpr BlockId kNoBlock = ~static_cast<BlockId>(0);

/// Scalar value type: width in bits plus signedness (bool = u1).
struct IrType {
  unsigned bits = 32;
  bool is_signed = true;
  bool operator==(const IrType&) const = default;
  [[nodiscard]] std::string to_string() const;
};

#define HERMES_IR_OPS(X)                                                      \
  X(kConst, "const")    /* dest = imm */                                      \
  X(kCopy, "copy")      /* dest = src0 */                                     \
  X(kAdd, "add") X(kSub, "sub") X(kMul, "mul") X(kDiv, "div") X(kRem, "rem")  \
  X(kAnd, "and") X(kOr, "or") X(kXor, "xor") X(kNot, "not") X(kShl, "shl")    \
  X(kShr, "shr") X(kEq, "eq") X(kNe, "ne") X(kLt, "lt") X(kLe, "le")          \
  X(kSelect, "select")  /* dest = src0 ? src1 : src2 */                       \
  X(kZext, "zext") X(kSext, "sext") X(kTrunc, "trunc")                        \
  X(kLoad, "load")      /* dest = mem[imm][src0] */                           \
  X(kStore, "store")    /* mem[imm][src0] = src1 */                           \
  /* Terminators: */                                                          \
  X(kBr, "br")          /* goto target0 */                                    \
  X(kCondBr, "condbr")  /* src0 ? target0 : target1 */                        \
  X(kRet, "ret")        /* return src0 (or void if src0 == kNoReg) */
HERMES_ENUM(Op, std::uint8_t, HERMES_IR_OPS)

[[nodiscard]] bool is_terminator(Op op);
/// True for instructions with effects beyond their destination register.
[[nodiscard]] bool has_side_effects(Op op);

struct Instr {
  Op op = Op::kConst;
  IrType type;                 ///< operation/result type
  RegId dest = kNoReg;
  RegId src[3] = {kNoReg, kNoReg, kNoReg};
  std::uint64_t imm = 0;       ///< constant value, or memory index for load/store
  BlockId target0 = kNoBlock;  ///< branch targets
  BlockId target1 = kNoBlock;

  [[nodiscard]] unsigned num_srcs() const;
};

struct Block {
  std::vector<Instr> instrs;  ///< last instruction is the terminator
  [[nodiscard]] const Instr& terminator() const { return instrs.back(); }
};

/// An array: either an interface memory (accelerator port, contents owned by
/// the caller/testbench) or a local RAM/ROM with optional initial contents.
struct MemDecl {
  std::string name;
  IrType element;
  std::size_t depth = 0;
  bool is_interface = false;
  bool is_rom = false;  ///< read-only (no stores); maps to a ROM/initialized RAM
  std::vector<std::uint64_t> init;
};

struct ParamDecl {
  std::string name;
  IrType type;
  RegId reg = kNoReg;        ///< scalar params: register holding the value
  std::size_t mem = SIZE_MAX;///< array params: memory index
  [[nodiscard]] bool is_array() const { return mem != SIZE_MAX; }
};

class Function {
 public:
  explicit Function(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  RegId new_reg(IrType type) {
    reg_types_.push_back(type);
    return static_cast<RegId>(reg_types_.size() - 1);
  }
  [[nodiscard]] const IrType& reg_type(RegId reg) const { return reg_types_.at(reg); }
  [[nodiscard]] std::size_t num_regs() const { return reg_types_.size(); }

  BlockId new_block() {
    blocks_.emplace_back();
    return static_cast<BlockId>(blocks_.size() - 1);
  }
  [[nodiscard]] Block& block(BlockId id) { return blocks_.at(id); }
  [[nodiscard]] const Block& block(BlockId id) const { return blocks_.at(id); }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }

  std::size_t add_memory(MemDecl mem) {
    memories_.push_back(std::move(mem));
    return memories_.size() - 1;
  }
  [[nodiscard]] const std::vector<MemDecl>& memories() const { return memories_; }
  [[nodiscard]] std::vector<MemDecl>& memories() { return memories_; }

  std::vector<ParamDecl> params;
  IrType return_type{0, false};  ///< bits==0 means void
  BlockId entry = 0;

  /// Structural invariants: every block non-empty and terminator-ended,
  /// no terminators mid-block, operands/targets in range.
  [[nodiscard]] Status validate() const;

  /// Human-readable listing (for tests and reports).
  [[nodiscard]] std::string dump() const;

  /// Total instruction count (including terminators).
  [[nodiscard]] std::size_t instr_count() const;

  /// Removes unreachable blocks and renumbers the survivors (branch targets
  /// and entry are remapped). Returns the number of blocks removed.
  std::size_t compact_blocks();

 private:
  std::string name_;
  std::vector<IrType> reg_types_;
  std::vector<Block> blocks_;
  std::vector<MemDecl> memories_;
};

}  // namespace hermes::ir
