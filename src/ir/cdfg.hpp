// Control and Data Flow Graph extraction.
//
// "The High-Level Synthesis flow begins with a compilation step to ... generate
// a Control and Data Flow Graph (CDFG). Then three core steps are performed on
// the CDFG (resource allocation, scheduling, binding)" — HERMES, Sec. II.
//
// Control flow is the IR's block graph; this module derives the *data* flow:
// per-block dependence DAGs the scheduler honours. Edges are annotated with
// their hazard kind because the FSMD timing rules differ per kind (e.g. a RAW
// edge may be chained within a state; a WAW edge needs a full register-write
// separation).
#pragma once

#include <cstddef>
#include <vector>

#include "common/enum_names.hpp"
#include "ir/ir.hpp"

namespace hermes::ir {

#define HERMES_DEP_KINDS(X)                                                   \
  X(kRaw, "raw")          /* register read-after-write */                     \
  X(kWar, "war")          /* register write-after-read */                     \
  X(kWaw, "waw")          /* register write-after-write */                    \
  X(kMemRaw, "mem_raw")   /* load after store, same memory */                 \
  X(kMemWar, "mem_war")   /* store after load, same memory */                 \
  X(kMemWaw, "mem_waw")   /* store after store, same memory */                \
  X(kControl, "control")  /* terminator ordering */
HERMES_ENUM(DepKind, std::uint8_t, HERMES_DEP_KINDS)

struct Dep {
  std::size_t on = 0;  ///< index of the earlier instruction
  DepKind kind = DepKind::kRaw;
};

/// Dependence edges for one instruction (indices into the same block).
struct CdfgNode {
  std::vector<Dep> deps;
};

struct BlockCdfg {
  std::vector<CdfgNode> nodes;  ///< one per instruction, terminator included
  [[nodiscard]] std::size_t edge_count() const {
    std::size_t count = 0;
    for (const CdfgNode& node : nodes) count += node.deps.size();
    return count;
  }
};

/// Builds the dependence DAG of one block. All edges point from a later
/// instruction to an earlier one (program order is a valid topological
/// order). The terminator is ordered after every memory access.
BlockCdfg build_block_cdfg(const Function& function, BlockId block);

/// Whole-function summary used by the FIG2 flow report.
struct CdfgSummary {
  std::size_t blocks = 0;
  std::size_t nodes = 0;
  std::size_t data_edges = 0;
  std::size_t control_edges = 0;  ///< CFG edges between blocks
};

CdfgSummary summarize_cdfg(const Function& function);

}  // namespace hermes::ir
