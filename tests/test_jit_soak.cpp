// JIT chaos soak: a family of run-twice SEU campaigns executed on the JIT
// backend and fingerprint-checked against the serial interpreter oracle.
//
// Every plan runs three times — once on the interpreter (the oracle), twice
// through run_netlist_seu_campaign on the kJit backend — and all three
// fault::fingerprint values must agree. Plan modules come from the shared
// random-netlist generator, so the soak sweeps the same
// edge-width/shift/division/RAM-collision corners as the differential fuzz,
// but through the full campaign machinery: many Simulator replicas sharing
// one cached kernel across ThreadPool workers.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fault/campaign.hpp"
#include "hw/jit/cache.hpp"
#include "hw/jit/exec_memory.hpp"
#include "netlist_fuzz.hpp"
#include "soak_util.hpp"

namespace hermes::fault {
namespace {

using soak::kFnvBasis;
using soak::mix;

// 64 random-design plans plus 8 on a fixed design stressing warm-cache reuse
// across repeated campaigns: 72 plans, each run once on the interpreter and
// twice on the JIT backend.
constexpr int kRandomPlans = 64;
constexpr int kWarmCachePlans = 8;
static_assert(kRandomPlans + kWarmCachePlans >= 64,
              "ISSUE floor: at least 64 run-twice JIT soak plans");

NetlistSeuPlan make_plan(std::uint64_t seed) {
  NetlistSeuPlan plan;
  plan.replicas = 8 + static_cast<std::size_t>(seed % 9);  // 8..16
  plan.cycles_before = 2 + (seed % 3);
  plan.cycles_after = 8 + (seed % 8);
  plan.base_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  return plan;
}

/// Runs one plan on one engine and reduces the result to its fingerprint,
/// folding in the plan seed so plans cannot mask each other's outcomes.
std::uint64_t run_once(const hw::Module& module, const NetlistSeuPlan& plan,
                       std::uint64_t seed, bool jit) {
  hw::SimOptions sim;
  if (jit) sim.backend = hw::SimBackend::kJit;
  const NetlistSeuResult result =
      run_netlist_seu_campaign(module, plan, nullptr, sim);
  std::uint64_t hash = kFnvBasis;
  hash = mix(hash, seed);
  hash = mix(hash, fingerprint(result));
  hash = mix(hash, result.diverged);
  return hash;
}

TEST(JitSoak, RandomDesignCampaignsMatchInterpreterOracleRunTwice) {
  Rng rng(0x50A7C0DE);
  std::uint64_t oracle_hash = kFnvBasis;
  std::uint64_t jit_hash_a = kFnvBasis;
  std::uint64_t jit_hash_b = kFnvBasis;
  for (int i = 0; i < kRandomPlans; ++i) {
    hw::fuzz::RandomDesign design =
        hw::fuzz::make_random_design(rng, i, "jit_soak");
    ASSERT_TRUE(design.module.validate().ok()) << "plan " << i;
    NetlistSeuPlan plan = make_plan(static_cast<std::uint64_t>(i) + 1);
    plan.inputs.emplace_back("en0", 1);
    for (const std::string& port : design.input_ports) {
      if (port != "en0" && rng.next_bool(0.75)) {
        plan.inputs.emplace_back(port, rng.next_u64());
      }
    }

    const std::uint64_t oracle =
        run_once(design.module, plan, i, /*jit=*/false);
    const std::uint64_t jit_a = run_once(design.module, plan, i, /*jit=*/true);
    const std::uint64_t jit_b = run_once(design.module, plan, i, /*jit=*/true);
    ASSERT_EQ(oracle, jit_a) << "JIT diverged from interpreter, plan " << i;
    ASSERT_EQ(jit_a, jit_b) << "JIT campaign not run-twice stable, plan " << i;
    oracle_hash = mix(oracle_hash, oracle);
    jit_hash_a = mix(jit_hash_a, jit_a);
    jit_hash_b = mix(jit_hash_b, jit_b);
  }
  EXPECT_EQ(oracle_hash, jit_hash_a);
  EXPECT_EQ(jit_hash_a, jit_hash_b);
}

TEST(JitSoak, WarmCacheCampaignsStayDeterministicAcrossPlans) {
  // One fixed design, many plans: after the first campaign every simulator
  // construction is a warm cache hit, so this family soaks the shared-kernel
  // path specifically. Stats only move when the JIT is actually available.
  Rng rng(0xCAC4E5EED);
  hw::fuzz::RandomDesign design =
      hw::fuzz::make_random_design(rng, 0, "jit_soak_warm");
  ASSERT_TRUE(design.module.validate().ok());

  hw::jit::KernelCache::global().reset_stats();
  std::uint64_t first_pass = kFnvBasis;
  std::uint64_t second_pass = kFnvBasis;
  for (int i = 0; i < kWarmCachePlans; ++i) {
    NetlistSeuPlan plan = make_plan(1000 + static_cast<std::uint64_t>(i));
    plan.inputs.emplace_back("en0", 1);
    const std::uint64_t oracle =
        run_once(design.module, plan, i, /*jit=*/false);
    first_pass = mix(first_pass, run_once(design.module, plan, i, true));
    second_pass = mix(second_pass, run_once(design.module, plan, i, true));
    ASSERT_EQ(oracle, run_once(design.module, plan, i, true)) << "plan " << i;
  }
  EXPECT_EQ(first_pass, second_pass);

  const auto stats = hw::jit::KernelCache::global().stats();
  if (hw::jit::jit_available()) {
    // All campaigns share one module digest: exactly one compile, every
    // other simulator construction a hit.
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_GT(stats.hits, stats.compiles);
  } else {
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 0u);
  }
}

}  // namespace
}  // namespace hermes::fault
