// Differential cache-oracle suite for the compile-service FlowCache.
//
// The central claim under test: a warm cache NEVER changes what a compile
// produces, only what it costs. Every family here compares warm-served
// results byte-for-byte against cold-computed oracles, and the key-derivation
// fuzz asserts the converse — any single-token change to a source or any
// single-field change to the options moves the stage key, so a stale
// artifact can never be addressed by a fresh request.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "svc/service.hpp"
#include "svc_corpus.hpp"

namespace hermes::svc {
namespace {

/// Small characterization grid: the full default sweep is 600 points and
/// only its caching behaviour matters here.
hls::SweepConfig small_sweep() {
  hls::SweepConfig sweep;
  sweep.ops = {ir::Op::kAdd, ir::Op::kMul};
  sweep.widths = {8, 32};
  sweep.pipeline_stages = {0, 1};
  sweep.clock_periods_ns = {4.0, 8.0};
  return sweep;
}

ServiceOptions serial_options() {
  ServiceOptions options;
  options.workers = 0;
  options.sweep = small_sweep();
  return options;
}

// ---------------------------------------------------------------------------
// The differential oracle: warm == cold, byte for byte
// ---------------------------------------------------------------------------

TEST(CacheOracle, WarmRunByteIdenticalToColdOracle) {
  // >= 40 randomized designs; every request's cold oracle comes from a
  // FRESH service (empty cache), the warm result from a shared service's
  // SECOND pass over the corpus, where every stage must be cache-served.
  constexpr int kDesigns = 42;
  const std::vector<CompileRequest> corpus =
      corpus::mixed_corpus(kDesigns, 0xC0FFEE);

  std::vector<CompileOutcome> cold;
  for (const CompileRequest& request : corpus) {
    CompileService fresh(serial_options());
    cold.push_back(fresh.run({request}).front());
    ASSERT_TRUE(cold.back().status.ok())
        << "cold job " << cold.size() - 1 << ": "
        << cold.back().status.to_string();
  }

  CompileService shared(serial_options());
  (void)shared.run(corpus);  // pass 1: populate
  shared.cache().reset_stats();
  const std::vector<CompileOutcome> warm = shared.run(corpus);  // pass 2

  ASSERT_EQ(warm.size(), cold.size());
  for (int i = 0; i < kDesigns; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(warm[idx].fingerprint(), cold[idx].fingerprint())
        << "design " << i << " diverged warm vs cold";
    EXPECT_EQ(warm[idx].bitstream, cold[idx].bitstream)
        << "design " << i << " bitstream bytes differ";
    EXPECT_EQ(warm[idx].netlist_digest, cold[idx].netlist_digest);
    EXPECT_EQ(warm[idx].fsm_states, cold[idx].fsm_states);
    for (const StageTrace& trace : warm[idx].stages) {
      EXPECT_TRUE(trace.hit) << "design " << i << " stage "
                             << to_string(trace.stage) << " missed on pass 2";
    }
  }
  // Exact accounting: pass 2 was all hits, no computes, no evictions.
  const FlowCacheStats stats = shared.cache().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.computes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
}

TEST(CacheOracle, WarmHitsCostExactlyOneCycle) {
  const CompileRequest request = corpus::source_request(0);
  CompileService service(serial_options());
  const CompileOutcome first = service.run({request}).front();
  ASSERT_TRUE(first.status.ok());
  const CompileOutcome second = service.run({request}).front();
  ASSERT_TRUE(second.status.ok());
  ASSERT_EQ(second.stages.size(), first.stages.size());
  EXPECT_EQ(second.cycles_charged, second.stages.size() * cost::kHitCycles);
  EXPECT_LT(second.cycles_charged, first.cycles_charged);
}

// ---------------------------------------------------------------------------
// Key-derivation fuzz: any change moves the key, no mutant collides
// ---------------------------------------------------------------------------

TEST(CacheKeys, SourceSingleTokenMutationsMoveScheduleKey) {
  // Mirror of test_jit's SingleCellMutationsNeverCollide at the source
  // level: flip one byte of the C source; the schedule key must change and
  // no two mutants may collide with each other or any base.
  Rng rng(0x5EEDC0DE);
  std::set<std::uint64_t> seen;
  for (int trial = 0; trial < 40; ++trial) {
    const CompileRequest base = corpus::source_request(trial);
    const std::uint64_t base_key = schedule_key(base.source, base.flow);
    seen.insert(base_key);
    for (int mutation = 0; mutation < 4; ++mutation) {
      std::string mutated = base.source;
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng.next_below(7)));
      const std::uint64_t key = schedule_key(mutated, base.flow);
      EXPECT_NE(key, base_key) << "trial " << trial << " pos " << pos;
      EXPECT_TRUE(seen.insert(key).second)
          << "schedule-key collision at trial " << trial;
    }
  }
}

TEST(CacheKeys, EveryFlowOptionFieldMovesScheduleKey) {
  const std::string source = corpus::kernel_for(1).source;
  const hls::FlowOptions base;
  const std::uint64_t base_key = schedule_key(source, base);

  const auto mutated_key = [&](auto&& mutate) {
    hls::FlowOptions options = base;
    mutate(options);
    return schedule_key(source, options);
  };
  std::set<std::uint64_t> keys = {base_key};
  const auto expect_moves = [&](const char* field, std::uint64_t key) {
    EXPECT_NE(key, base_key) << field << " does not reach the schedule key";
    EXPECT_TRUE(keys.insert(key).second) << field << " collides";
  };

  expect_moves("top", mutated_key([](auto& o) { o.top = "other"; }));
  expect_moves("clock_period", mutated_key([](auto& o) {
                 o.constraints.clock_period_ns += 0.5;
               }));
  expect_moves("multipliers",
               mutated_key([](auto& o) { o.constraints.multipliers += 1; }));
  expect_moves("dividers",
               mutated_key([](auto& o) { o.constraints.dividers += 1; }));
  expect_moves("allow_chaining", mutated_key([](auto& o) {
                 o.constraints.allow_chaining = !o.constraints.allow_chaining;
               }));
  expect_moves("enforce_resources", mutated_key([](auto& o) {
                 o.constraints.enforce_resources =
                     !o.constraints.enforce_resources;
               }));
  expect_moves("merge_registers", mutated_key([](auto& o) {
                 o.constraints.merge_registers = !o.constraints.merge_registers;
               }));
  expect_moves("unroll_limit",
               mutated_key([](auto& o) { o.unroll_limit = 4; }));
  expect_moves("run_middle_end",
               mutated_key([](auto& o) { o.run_middle_end = false; }));
  expect_moves("target.name",
               mutated_key([](auto& o) { o.target.name = "other"; }));
  expect_moves("target.lut_delay",
               mutated_key([](auto& o) { o.target.lut_delay_ns += 0.01; }));
  expect_moves("target.luts", mutated_key([](auto& o) { o.target.luts += 1; }));
}

TEST(CacheKeys, EveryBackendFieldMovesMapKey) {
  const hls::FpgaTarget target = hls::ng_ultra();
  const nx::BackendOptions base;
  constexpr std::uint64_t kDigest = 0xABCDEF12345678ULL;
  const std::uint64_t base_key = map_key(kDigest, target, base);

  const auto mutated_key = [&](auto&& mutate) {
    nx::BackendOptions options = base;
    mutate(options);
    return map_key(kDigest, target, options);
  };
  std::set<std::uint64_t> keys = {base_key};
  const auto expect_moves = [&](const char* field, std::uint64_t key) {
    EXPECT_NE(key, base_key) << field << " does not reach the map key";
    EXPECT_TRUE(keys.insert(key).second) << field << " collides";
  };

  expect_moves("target_period",
               mutated_key([](auto& o) { o.target_period_ns = 7.5; }));
  expect_moves("place.iterations", mutated_key([](auto& o) {
                 o.place.iterations_per_instance += 1;
               }));
  expect_moves("place.initial_temp",
               mutated_key([](auto& o) { o.place.initial_temp += 0.25; }));
  expect_moves("place.cooling",
               mutated_key([](auto& o) { o.place.cooling += 0.01; }));
  expect_moves("place.seed", mutated_key([](auto& o) { o.place.seed += 1; }));
  expect_moves("route.capacity", mutated_key([](auto& o) {
                 o.route.channel_capacity += 0.5;
               }));
  // The upstream netlist digest is part of the address.
  expect_moves("module_digest", map_key(kDigest ^ 1, target, base));
  // And the target model reaches the map key too.
  hls::FpgaTarget other = target;
  other.routing_delay_ns += 0.01;
  expect_moves("target.routing_delay", map_key(kDigest, other, base));
}

TEST(CacheKeys, EveryTargetFieldMovesCharacterizeKey) {
  const hls::SweepConfig sweep;
  const hls::FpgaTarget base = hls::ng_ultra();
  const std::uint64_t base_key = characterize_key(base, sweep);

  const auto mutated_key = [&](auto&& mutate) {
    hls::FpgaTarget target = base;
    mutate(target);
    return characterize_key(target, sweep);
  };
  std::set<std::uint64_t> keys = {base_key};
  const auto expect_moves = [&](const char* field, std::uint64_t key) {
    EXPECT_NE(key, base_key) << field << " missing from characterize key";
    EXPECT_TRUE(keys.insert(key).second) << field << " collides";
  };

  expect_moves("lut_delay", mutated_key([](auto& t) { t.lut_delay_ns += 0.01; }));
  expect_moves("carry_per_bit",
               mutated_key([](auto& t) { t.carry_per_bit_ns += 0.001; }));
  expect_moves("dsp_delay", mutated_key([](auto& t) { t.dsp_delay_ns += 0.01; }));
  expect_moves("ff_setup", mutated_key([](auto& t) { t.ff_setup_ns += 0.01; }));
  expect_moves("dsp_mul_width",
               mutated_key([](auto& t) { t.dsp_mul_width += 1; }));
  expect_moves("static_power",
               mutated_key([](auto& t) { t.static_power_mw += 1.0; }));

  // The sweep grid is part of the address too.
  hls::SweepConfig wider = sweep;
  wider.widths.push_back(48);
  expect_moves("sweep.widths", characterize_key(base, wider));
}

TEST(CacheKeys, NetlistMutationsMoveMapKey) {
  // The netlist half of the collision fuzz: one structural mutation anywhere
  // in a random module must re-address the map stage.
  Rng rng(0xFEEDFACE);
  const hls::FpgaTarget target = hls::ng_ultra();
  const nx::BackendOptions backend;
  std::set<std::uint64_t> seen;
  for (int trial = 0; trial < 40; ++trial) {
    hw::fuzz::RandomDesign design =
        hw::fuzz::make_random_design(rng, trial, "svckey");
    const std::uint64_t base =
        map_key(design.module.digest(), target, backend);
    EXPECT_TRUE(seen.insert(base).second) << "trial " << trial;
    hw::fuzz::mutate_one_cell(rng, design.module);
    const std::uint64_t mutated =
        map_key(design.module.digest(), target, backend);
    EXPECT_NE(mutated, base) << "trial " << trial;
    EXPECT_TRUE(seen.insert(mutated).second) << "trial " << trial;
  }
}

TEST(CacheKeys, StageDomainsAreDisjoint) {
  // Identical raw inputs must never address entries across stages.
  const std::uint64_t key = 0x1234;
  EXPECT_NE(bitstream_key(key), key);
  const hls::FlowOptions flow;
  const nx::BackendOptions backend;
  EXPECT_NE(schedule_key("x", flow),
            map_key(schedule_key("x", flow), flow.target, backend));
  EXPECT_NE(characterize_key(flow.target, hls::SweepConfig{}),
            schedule_key("", flow));
}

// ---------------------------------------------------------------------------
// FlowCache unit behaviour: stats exactness, LRU, null computes
// ---------------------------------------------------------------------------

std::shared_ptr<const std::string> make_artifact(const std::string& text) {
  return std::make_shared<std::string>(text);
}

std::vector<std::uint8_t> string_image(const std::string& text) {
  return {text.begin(), text.end()};
}

TEST(FlowCacheUnit, HitMissAccountingIsExact) {
  FlowCache cache;
  int computes = 0;
  const auto fetch = [&](std::uint64_t key, const std::string& text) {
    bool hit = false;
    auto value = cache.get_or_compute<std::string>(
        Stage::kMap, key,
        [&]() {
          ++computes;
          return make_artifact(text);
        },
        string_image, &hit);
    return std::make_pair(value, hit);
  };

  auto [first, miss] = fetch(1, "alpha");
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(miss);
  auto [second, hit] = fetch(1, "never-recomputed");
  EXPECT_TRUE(hit);
  EXPECT_EQ(*second, "alpha");  // served, not recomputed
  EXPECT_EQ(computes, 1);

  const FlowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.bytes_in_use, 5u);
  EXPECT_EQ(stats.rot_detected, 0u);
  EXPECT_EQ(stats.rot_served, 0u);
}

TEST(FlowCacheUnit, ThrowingComputeReleasesItsLatch) {
  // The elected compiler must release its latch when compute() throws;
  // otherwise the next request for the key parks on it forever.
  FlowCache cache;
  EXPECT_THROW((void)cache.get_or_compute<std::string>(
                   Stage::kMap, 9,
                   []() -> std::shared_ptr<const std::string> {
                     throw std::runtime_error("boom");
                   },
                   string_image),
               std::runtime_error);
  EXPECT_FALSE(cache.contains(Stage::kMap, 9));

  bool hit = true;
  bool waiter = true;
  auto value = cache.get_or_compute<std::string>(
      Stage::kMap, 9, [] { return make_artifact("after"); }, string_image,
      &hit, &waiter);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, "after");
  EXPECT_FALSE(hit);
  EXPECT_FALSE(waiter);

  // A throwing image_of releases the latch the same way.
  EXPECT_THROW((void)cache.get_or_compute<std::string>(
                   Stage::kMap, 10, [] { return make_artifact("lost"); },
                   [](const std::string&) -> std::vector<std::uint8_t> {
                     throw std::runtime_error("no image");
                   }),
               std::runtime_error);
  EXPECT_FALSE(cache.contains(Stage::kMap, 10));
  EXPECT_EQ(*cache.get_or_compute<std::string>(
                Stage::kMap, 10, [] { return make_artifact("kept"); },
                string_image),
            "kept");

  const FlowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.computes, 2u);
  EXPECT_EQ(stats.inflight_waits, 0u);
  EXPECT_EQ(stats.bytes_in_use, 9u);
}

TEST(FlowCacheUnit, ThrowingComputeWakesItsWaitersToNull) {
  // A requester parked on the latch of a compute that throws wakes to null
  // as a waiter (and so falls back to computing inline) while the exception
  // reaches the compiler's caller alone.
  FlowCache cache;
  std::thread compiler([&] {
    EXPECT_THROW((void)cache.get_or_compute<std::string>(
                     Stage::kMap, 11,
                     [&]() -> std::shared_ptr<const std::string> {
                       while (cache.stats().inflight_waits == 0) {
                         std::this_thread::yield();
                       }
                       throw std::runtime_error("boom");
                     },
                     string_image),
                 std::runtime_error);
  });
  while (cache.stats().misses == 0) std::this_thread::yield();

  bool hit = true;
  bool waiter = false;
  auto value = cache.get_or_compute<std::string>(
      Stage::kMap, 11, [] { return make_artifact("never"); }, string_image,
      &hit, &waiter);
  compiler.join();
  EXPECT_EQ(value, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(waiter);
  EXPECT_FALSE(cache.contains(Stage::kMap, 11));
  EXPECT_EQ(cache.stats().computes, 0u);
}

TEST(FlowCacheUnit, NullComputeInsertsNothing) {
  FlowCache cache;
  bool hit = true;
  auto value = cache.get_or_compute<std::string>(
      Stage::kSchedule, 7,
      []() -> std::shared_ptr<const std::string> { return nullptr; },
      string_image, &hit);
  EXPECT_EQ(value, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(cache.contains(Stage::kSchedule, 7));
  EXPECT_EQ(cache.stats().computes, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
}

TEST(FlowCacheUnit, ByteBudgetEvictsLeastRecentlyUsed) {
  FlowCache cache(12);  // room for two 5-byte images, not three
  const auto put = [&](std::uint64_t key, const std::string& text) {
    (void)cache.get_or_compute<std::string>(
        Stage::kBitstream, key, [&]() { return make_artifact(text); },
        string_image);
  };
  put(1, "aaaaa");
  put(2, "bbbbb");
  // Touch 1 so 2 becomes the LRU victim.
  bool hit = false;
  (void)cache.get_or_compute<std::string>(
      Stage::kBitstream, 1, [&]() { return make_artifact("x"); }, string_image,
      &hit);
  ASSERT_TRUE(hit);
  put(3, "ccccc");

  EXPECT_TRUE(cache.contains(Stage::kBitstream, 1));
  EXPECT_FALSE(cache.contains(Stage::kBitstream, 2)) << "LRU entry survived";
  EXPECT_TRUE(cache.contains(Stage::kBitstream, 3));
  const FlowCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_evicted, 5u);
  EXPECT_EQ(stats.bytes_in_use, 10u);
  EXPECT_LE(stats.bytes_in_use, 12u);
}

TEST(FlowCacheUnit, EvictedEntryIsRecomputedIdentically) {
  // Eviction costs a recompute, never correctness: the service-level oracle
  // in miniature.
  FlowCache cache(6);  // one 5-byte image at a time
  int computes = 0;
  const auto fetch = [&](std::uint64_t key, const std::string& text) {
    auto value = cache.get_or_compute<std::string>(
        Stage::kMap, key,
        [&]() {
          ++computes;
          return make_artifact(text);
        },
        string_image);
    return *value;
  };
  EXPECT_EQ(fetch(1, "alpha"), "alpha");
  EXPECT_EQ(fetch(2, "gamma"), "gamma");  // evicts 1
  EXPECT_EQ(fetch(1, "alpha"), "alpha");  // recomputed, same bytes
  EXPECT_EQ(computes, 3);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(FlowCacheUnit, ClearDropsEntriesAndBytes) {
  FlowCache cache;
  (void)cache.get_or_compute<std::string>(
      Stage::kMap, 1, [&]() { return make_artifact("hello"); }, string_image);
  ASSERT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_FALSE(cache.contains(Stage::kMap, 1));
}

}  // namespace
}  // namespace hermes::svc
