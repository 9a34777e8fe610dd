// IR interpreter — the golden software model.
//
// Every HLS-generated accelerator is validated against this interpreter over
// randomized inputs (the role of Bambu's generated testbenches). Every
// value-producing instruction is computed by ir::eval_instr (ir/eval.hpp),
// whose div, rem and shift rules are the ones hw::Simulator's cells use
// (common/bits.hpp): values truncated to declared widths, division by zero
// yields all-ones, remainder by zero yields the dividend, INT64_MIN / -1
// wraps. Out-of-bounds loads read 0 and out-of-bounds stores are dropped.
//
// It also counts executed operations, which the use-case benchmarks use as
// the "software on the rad-hard CPU" baseline (one op per cycle).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "ir/ir.hpp"

namespace hermes::ir {

struct ExecStats {
  std::uint64_t return_value = 0;
  bool returned_value = false;
  std::uint64_t instructions = 0;  ///< dynamic instruction count
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  std::uint64_t multiplies = 0;
  std::uint64_t divides = 0;
};

/// One dynamic memory access, for cache/bus replay (the AXI wrappers feed
/// the recorded trace through the cache model to price data movement and to
/// reproduce the final external-memory contents).
struct MemAccess {
  std::size_t mem = 0;        ///< IR memory index
  std::uint64_t address = 0;  ///< element index within the memory
  bool is_write = false;
  std::uint64_t value = 0;    ///< stored value (writes only)
};

class Interpreter {
 public:
  explicit Interpreter(const Function& function);

  /// Replaces the contents of an interface memory (pads/truncates to depth).
  void set_memory(std::size_t mem, std::vector<std::uint64_t> contents);
  [[nodiscard]] const std::vector<std::uint64_t>& memory(std::size_t mem) const {
    return memories_.at(mem);
  }

  /// Runs the function with the given scalar arguments (in parameter order,
  /// arrays skipped). Local and ROM memories are re-initialized each run;
  /// interface memories keep whatever set_memory installed (and are mutated
  /// by stores, observable afterwards through memory()).
  Result<ExecStats> run(std::span<const std::uint64_t> scalar_args,
                        std::uint64_t max_steps = 100'000'000);

  /// Records every load/store of the next run() into `trace` (cleared
  /// first). Pass nullptr to stop tracing.
  void set_trace(std::vector<MemAccess>* trace) { trace_ = trace; }

 private:
  const Function& function_;
  std::vector<std::vector<std::uint64_t>> memories_;
  std::vector<MemAccess>* trace_ = nullptr;
};

}  // namespace hermes::ir
