// Co-simulation tests. Every catalog kernel's accelerator is checked against
// the golden model over random inputs; cosim's hardware side (the JIT on the
// FSMD) is checked against the event engine on the same FSMD, with the JIT
// engaged and with it forced off; cosim's argument checks are exercised one
// bad argument at a time; and the IR evaluator is checked against the
// netlist cell evaluator operator by operator on corner operands.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hls/bind.hpp"
#include "hls/flow.hpp"
#include "hls/techlib.hpp"
#include "hls/testbench.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/exec_memory.hpp"
#include "hw/sim.hpp"
#include "hw/sim_eval.hpp"
#include "ir/eval.hpp"
#include "ir/interp.hpp"

namespace hermes::apps {
namespace {

using MemoryImages = std::map<std::size_t, std::vector<std::uint64_t>>;

constexpr std::uint64_t kMaxCycles = 10'000'000;

struct KernelCase {
  KernelSpec spec;
  hls::Constraints constraints;
  std::string label;  ///< test-name suffix
};

void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.label; }

std::string case_label(const ::testing::TestParamInfo<KernelCase>& info) {
  return info.param.label;
}

Result<hls::FlowResult> compile(const KernelCase& c) {
  hls::FlowOptions options;
  options.top = c.spec.name;
  options.constraints = c.constraints;
  return hls::run_flow(c.spec.source, options);
}

/// Random contents for every interface memory.
MemoryImages random_images(const ir::Function& function, std::uint64_t seed) {
  Rng rng(seed);
  MemoryImages images;
  for (std::size_t m = 0; m < function.memories().size(); ++m) {
    const ir::MemDecl& mem = function.memories()[m];
    if (!mem.is_interface) continue;
    std::vector<std::uint64_t> image(mem.depth);
    for (auto& word : image) word = rng.next_u64();
    images[m] = std::move(image);
  }
  return images;
}

std::vector<KernelCase> catalog_cases() {
  std::vector<KernelCase> cases;
  for (KernelSpec& spec : all_kernels()) {
    KernelCase c;
    c.label = spec.name;
    c.spec = std::move(spec);
    cases.push_back(std::move(c));
  }
  return cases;
}

// Non-power-of-two sobel widths keep their row-stride multiplies, signed and
// unsigned side by side; sharing them across the multiplier sweep once
// miscompiled (two multiplies bound to one unit in the same state).
std::vector<KernelCase> sobel_width_cases() {
  std::vector<KernelCase> cases;
  for (unsigned width = 9; width <= 12; ++width) {
    for (unsigned multipliers : {1u, 2u, 4u, 8u}) {
      KernelCase c;
      c.spec = sobel_kernel(width, 4);
      c.constraints.multipliers = multipliers;
      c.label = "sobel_w" + std::to_string(width) + "_mul" +
                std::to_string(multipliers);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

// ---- every catalog kernel against the golden model ----

class KernelCosim : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelCosim, HardwareMatchesGolden) {
  const KernelSpec& spec = GetParam().spec;
  auto flow = compile(GetParam());
  ASSERT_TRUE(flow.ok()) << spec.name << ": " << flow.status().to_string();

  // Binding must never allocate more multipliers than the scheduler was
  // allowed to use at once. Only exact for designs whose multiplies share
  // one width: the scheduler limits them together, binding pools by width.
  std::set<unsigned> mul_widths;
  const ir::Function& function = flow.value().function;
  for (ir::BlockId b = 0; b < function.num_blocks(); ++b) {
    for (const ir::Instr& instr : function.block(b).instrs) {
      if (hls::fu_class_of(instr.op) == hls::FuClass::kMultiplier) {
        mul_widths.insert(instr.type.bits);
      }
    }
  }
  if (mul_widths.size() == 1) {
    EXPECT_LE(flow.value().binding.stats.multiplier_instances,
              GetParam().constraints.multipliers);
  }

  const MemoryImages images =
      random_images(function, 0xC0DE + spec.name.size());
  auto result = cosimulate(flow.value(), {}, images, kMaxCycles);
  ASSERT_TRUE(result.ok()) << spec.name << ": " << result.status().to_string();
  EXPECT_TRUE(result.value().match) << spec.name << ": "
                                    << result.value().mismatch;
  EXPECT_GT(result.value().hw_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Catalog, KernelCosim,
                         ::testing::ValuesIn(catalog_cases()), case_label);
INSTANTIATE_TEST_SUITE_P(SobelWidths, KernelCosim,
                         ::testing::ValuesIn(sobel_width_cases()), case_label);

// ---- cosim's engine against the event engine ----

/// The catalog × multipliers {1, 2, 4} × clocks {6.25, 8, 10, 12.5} ns, plus
/// the non-power-of-two sobel widths.
std::vector<KernelCase> differential_cases() {
  std::vector<KernelCase> cases;
  for (const KernelCase& kernel : catalog_cases()) {
    for (unsigned multipliers : {1u, 2u, 4u}) {
      for (double period : {6.25, 8.0, 10.0, 12.5}) {
        KernelCase c = kernel;
        c.constraints.multipliers = multipliers;
        c.constraints.clock_period_ns = period;
        std::string clock = format("%g", period);
        for (char& ch : clock) ch = ch == '.' ? 'p' : ch;
        c.label = kernel.label + "_mul" + std::to_string(multipliers) + "_" +
                  clock + "ns";
        cases.push_back(std::move(c));
      }
    }
  }
  for (KernelCase& c : sobel_width_cases()) cases.push_back(std::move(c));
  return cases;
}

/// What the testbench observes of one hardware run.
struct HardwareRun {
  std::uint64_t cycles = 0;
  std::uint64_t return_value = 0;
  MemoryImages interface_memories;  ///< final contents, by IR memory index
};

/// The event engine on the FSMD, driven as cosimulate drives it: interface
/// images preloaded, start raised, run to done.
Result<HardwareRun> run_event_engine(const hls::FlowResult& flow,
                                     const MemoryImages& images) {
  hw::Simulator sim(flow.fsmd.module);  // default engine: kEvent
  if (!sim.status().ok()) return sim.status();
  for (const auto& [mem, image] : images) {
    for (std::size_t i = 0; i < image.size(); ++i) sim.write_memory(mem, i, image[i]);
  }
  sim.set_input("start", 1);
  auto cycles = sim.run_until("done", kMaxCycles);
  if (!cycles.ok()) return cycles.status();

  HardwareRun run;
  run.cycles = cycles.value();
  const ir::Function& function = flow.function;
  if (function.return_type.bits != 0) {
    run.return_value = sim.get_output("return_value");
  }
  for (std::size_t mem = 0; mem < function.memories().size(); ++mem) {
    if (!function.memories()[mem].is_interface) continue;
    std::vector<std::uint64_t>& words = run.interface_memories[mem];
    for (std::size_t addr = 0; addr < function.memories()[mem].depth; ++addr) {
      words.push_back(sim.read_memory(mem, addr));
    }
  }
  return run;
}

void expect_same_result(const hls::CosimResult& a, const hls::CosimResult& b) {
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.hw_cycles, b.hw_cycles);
  EXPECT_EQ(a.sw_instructions, b.sw_instructions);
  EXPECT_EQ(a.return_value, b.return_value);
  EXPECT_EQ(a.mismatch, b.mismatch);
}

/// Sets HERMES_DISABLE_JIT=1 for its lifetime, then restores the prior value
/// (the whole binary may already run with the JIT disabled).
class JitDisabled {
 public:
  JitDisabled() {
    if (const char* value = std::getenv(kVar)) prior_ = value;
    ::setenv(kVar, "1", 1);
  }
  ~JitDisabled() {
    if (prior_) {
      ::setenv(kVar, prior_->c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  JitDisabled(const JitDisabled&) = delete;
  JitDisabled& operator=(const JitDisabled&) = delete;

 private:
  static constexpr const char* kVar = "HERMES_DISABLE_JIT";
  std::optional<std::string> prior_;
};

class CosimDifferential : public ::testing::TestWithParam<KernelCase> {};

// The name keeps the test ids stable: generate_fsmd already sweeps, so this
// is cosim's JIT against the event engine on one and the same FSMD.
TEST_P(CosimDifferential, MatchesEventEngineOnUnsweptFsmd) {
  auto flow = compile(GetParam());
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  const ir::Function& function = flow.value().function;
  const MemoryImages images = random_images(function, 0xD1FF + GetParam().label.size());

  const hw::jit::KernelCacheStats before = hw::jit::KernelCache::global().stats();
  auto cosim = hls::cosimulate(flow.value(), {}, images, kMaxCycles);
  const hw::jit::KernelCacheStats after = hw::jit::KernelCache::global().stats();
  ASSERT_TRUE(cosim.ok()) << cosim.status().to_string();
  EXPECT_TRUE(cosim.value().match) << cosim.value().mismatch;
  if (hw::jit::jit_available()) {
    // A cache hit or a fresh compile: the hardware side ran native code.
    EXPECT_GT(after.hits + after.compiles, before.hits + before.compiles);
  }

  auto reference = run_event_engine(flow.value(), images);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  EXPECT_EQ(cosim.value().hw_cycles, reference.value().cycles);
  EXPECT_EQ(cosim.value().return_value, reference.value().return_value);
  // cosim's memories equal the golden model's word for word (match above),
  // so the reference's must equal them too.
  ir::Interpreter golden(function);
  for (const auto& [mem, image] : images) golden.set_memory(mem, image);
  ASSERT_TRUE(golden.run({}).ok());
  for (const auto& [mem, words] : reference.value().interface_memories) {
    EXPECT_EQ(words, golden.memory(mem)) << function.memories()[mem].name;
  }
}

TEST_P(CosimDifferential, ForcedFallbackGivesIdenticalResult) {
  auto flow = compile(GetParam());
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  const MemoryImages images =
      random_images(flow.value().function, 0xD1FF + GetParam().label.size());

  auto engaged = hls::cosimulate(flow.value(), {}, images, kMaxCycles);
  Result<hls::CosimResult> fallback = hls::CosimResult{};
  hw::jit::KernelCacheStats before, after;
  {
    JitDisabled disabled;
    EXPECT_FALSE(hw::jit::jit_available());
    before = hw::jit::KernelCache::global().stats();
    fallback = hls::cosimulate(flow.value(), {}, images, kMaxCycles);
    after = hw::jit::KernelCache::global().stats();
  }
  // Disabled lookups do not touch the kernel cache.
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  ASSERT_TRUE(engaged.ok()) << engaged.status().to_string();
  ASSERT_TRUE(fallback.ok()) << fallback.status().to_string();
  EXPECT_TRUE(fallback.value().match) << fallback.value().mismatch;
  expect_same_result(engaged.value(), fallback.value());
}

INSTANTIATE_TEST_SUITE_P(Kernels, CosimDifferential,
                         ::testing::ValuesIn(differential_cases()), case_label);

// ---- argument checks ----

constexpr const char* kLookup = R"(
  int32_t lookup(int32_t i, const int32_t offsets[4]) {
    int32_t table[4] = {5, 7, 11, 13};
    return table[i & 3] + offsets[i & 3];
  }
)";

hls::FlowResult compile_lookup() {
  hls::FlowOptions options;
  options.top = "lookup";
  auto flow = hls::run_flow(kLookup, options);
  EXPECT_TRUE(flow.ok()) << flow.status().to_string();
  return flow.take();
}

std::size_t memory_index(const ir::Function& function, bool interface) {
  for (std::size_t m = 0; m < function.memories().size(); ++m) {
    if (function.memories()[m].is_interface == interface) return m;
  }
  ADD_FAILURE() << "no " << (interface ? "interface" : "local") << " memory";
  return 0;
}

TEST(CosimArguments, AcceptsWellFormedCall) {
  const hls::FlowResult flow = compile_lookup();
  const std::size_t offsets = memory_index(flow.function, true);
  auto result = hls::cosimulate(flow, {2}, {{offsets, {1, 2, 3, 4}}});
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().match) << result.value().mismatch;
  EXPECT_EQ(result.value().return_value, 11u + 3u);
}

TEST(CosimArguments, RejectsImageForMissingMemory) {
  const hls::FlowResult flow = compile_lookup();
  const std::size_t past_end = flow.function.memories().size();
  auto result = hls::cosimulate(flow, {2}, {{past_end, {1}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(CosimArguments, RejectsImageForLocalMemory) {
  // The interpreter re-seeds the local table; preloading only the hardware
  // RAM would report a hardware mismatch that is not there.
  const hls::FlowResult flow = compile_lookup();
  const std::size_t table = memory_index(flow.function, false);
  auto result = hls::cosimulate(flow, {2}, {{table, {99, 99, 99, 99}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(CosimArguments, RejectsImageLongerThanMemory) {
  // Both models would drop the fifth word and still agree.
  const hls::FlowResult flow = compile_lookup();
  const std::size_t offsets = memory_index(flow.function, true);
  auto result = hls::cosimulate(flow, {2}, {{offsets, {1, 2, 3, 4, 5}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(CosimArguments, RejectsWrongScalarCount) {
  const hls::FlowResult flow = compile_lookup();
  auto extra = hls::cosimulate(flow, {2, 3}, {});
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), ErrorCode::kInvalidArgument);
  auto missing = hls::cosimulate(flow, {}, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kInvalidArgument);
}

// ---- one integer semantics: IR evaluator against netlist cells ----

constexpr auto kInt64Min =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min());

TEST(CosimCorners, MinDividedByMinusOneMatches) {
  hls::FlowOptions options;
  options.top = "f";
  auto flow =
      hls::run_flow("long f(long a, long b) { return a / b + a % b; }", options);
  ASSERT_TRUE(flow.ok()) << flow.status().to_string();
  auto result = hls::cosimulate(flow.value(), {kInt64Min, ~0ULL}, {});
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().match) << result.value().mismatch;
  EXPECT_EQ(result.value().return_value, kInt64Min);
}

/// Corner operands at `width`: 0, 1, -1, 2, the signed minimum and maximum,
/// width - 1 and 64, each truncated to the width.
std::vector<std::uint64_t> corner_operands(unsigned width) {
  const std::uint64_t min = 1ULL << (width - 1);
  const std::vector<std::uint64_t> raw = {0, 1, ~0ULL, 2, min, min - 1,
                                          width - 1, 64};
  std::vector<std::uint64_t> operands;
  for (const std::uint64_t value : raw) operands.push_back(truncate(value, width));
  return operands;
}

TEST(OperatorSemantics, IrEvaluatorMatchesNetlistCell) {
  using ir::Op;
  const Op binary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kRem,
                       Op::kAnd, Op::kOr,  Op::kXor, Op::kShl, Op::kShr,
                       Op::kEq,  Op::kNe,  Op::kLt,  Op::kLe};
  std::size_t checked = 0;
  for (const unsigned width : {1u, 8u, 16u, 32u, 64u}) {
    const std::vector<std::uint64_t> operands = corner_operands(width);
    for (const bool is_signed : {false, true}) {
      ir::Function function("op");
      const ir::IrType type{width, is_signed};
      const ir::RegId a = function.new_reg(type);
      const ir::RegId b = function.new_reg(type);
      const ir::RegId wide = function.new_reg({64, is_signed});
      const ir::RegId flag = function.new_reg({1, false});
      const std::uint8_t widths[2] = {static_cast<std::uint8_t>(width),
                                      static_cast<std::uint8_t>(width)};

      // `instr` on (x, y) through both evaluators; the cell is the one the
      // FSMD builds for it.
      const auto expect_same = [&](const ir::Instr& instr, hw::CellKind kind,
                                   std::uint64_t x, std::uint64_t y) {
        const std::uint64_t in[2] = {x, y};
        const std::uint64_t ir_value =
            ir::eval_instr(function, instr, [&](int i) { return in[i]; });
        const std::uint64_t cell_value = hw::eval_comb_cell(
            kind, 0, bit_mask(function.reg_type(instr.dest).bits),
            [&](int i) { return in[i]; }, widths, 2);
        ASSERT_EQ(ir_value, cell_value)
            << to_string(instr.op) << " " << type.to_string() << " (" << x
            << ", " << y << ")";
        ++checked;
      };

      for (const Op op : binary) {
        ir::Instr instr;
        instr.op = op;
        instr.type = type;
        instr.src[0] = a;
        instr.src[1] = b;
        const bool compare =
            op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kLe;
        instr.dest = compare ? flag : a;
        for (const std::uint64_t x : operands) {
          for (const std::uint64_t y : operands) {
            expect_same(instr, hls::to_cell_kind(instr), x, y);
          }
        }
      }
      ir::Instr negate;
      negate.op = Op::kNot;
      negate.type = type;
      negate.src[0] = a;
      negate.dest = b;
      ir::Instr extend;
      extend.op = Op::kSext;
      extend.type = {64, is_signed};
      extend.src[0] = a;
      extend.dest = wide;
      for (const std::uint64_t x : operands) {
        expect_same(negate, hw::CellKind::kNot, x, 0);
        expect_same(extend, hw::CellKind::kSext, x, 0);
      }
    }
  }
  // 5 widths x 2 signednesses x (14 ops x 8 x 8 + 2 ops x 8).
  EXPECT_EQ(checked, 5u * 2u * (14u * 64u + 16u));
}

}  // namespace
}  // namespace hermes::apps
