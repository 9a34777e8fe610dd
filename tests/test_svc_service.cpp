// Compile-service scheduling, budget and cancellation behaviour.
//
// Fairness, cancellation and dedup are all tested against the same bar as
// the cache: nothing a tenant does — flooding the queue, cancelling
// mid-stage, bursting one digest from 16 jobs — may change what any OTHER
// job produces, and every anomaly must land in the right Status code with
// its partial stats intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "nxmap/device.hpp"
#include "svc/service.hpp"
#include "svc_corpus.hpp"

namespace hermes::svc {
namespace {

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

/// A request that dispatches but never compiles (budget 0 fails before the
/// first stage) — the fairness tests only watch dispatch order.
CompileRequest instant_request(int index, std::string tenant) {
  CompileRequest request = corpus::source_request(index, std::move(tenant));
  request.cycle_budget = 0;
  return request;
}

/// Job ids of `tenant` sorted by the dispatch slot the WFQ assigned them.
std::vector<unsigned> dispatch_slots(const std::vector<CompileOutcome>& all,
                                     const std::string& tenant) {
  std::vector<unsigned> slots;
  for (const CompileOutcome& outcome : all) {
    if (outcome.tenant == tenant) slots.push_back(outcome.dispatch_index);
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

// ---------------------------------------------------------------------------
// Weighted-fair scheduling
// ---------------------------------------------------------------------------

TEST(Scheduling, EqualWeightsAlternateUnderSkewedLoad) {
  // Tenant A floods 30 jobs before B's 6 arrive; with equal weights the WFQ
  // must still alternate, so B's last job dispatches by slot 11 instead of
  // waiting out the flood.
  CompileService service(serial_options());
  std::vector<CompileRequest> requests;
  for (int i = 0; i < 30; ++i) requests.push_back(instant_request(i, "flood"));
  for (int i = 0; i < 6; ++i) requests.push_back(instant_request(i, "light"));
  const std::vector<CompileOutcome> outcomes = service.run(std::move(requests));

  const std::vector<unsigned> light = dispatch_slots(outcomes, "light");
  ASSERT_EQ(light.size(), 6u);
  EXPECT_LE(light.back(), 11u)
      << "light tenant starved behind the flood: last slot " << light.back();
  // First 12 slots split 6/6 between the tenants.
  const std::vector<unsigned> flood = dispatch_slots(outcomes, "flood");
  const auto in_first_12 = [](unsigned slot) { return slot < 12; };
  EXPECT_EQ(std::count_if(flood.begin(), flood.end(), in_first_12), 6);
  EXPECT_EQ(std::count_if(light.begin(), light.end(), in_first_12), 6);
}

TEST(Scheduling, WeightsSkewDispatchProportionally) {
  // weight(heavy)=3, weight(light)=1: every 4 consecutive slots carry 3
  // heavy jobs and 1 light job while both queues are non-empty.
  CompileService service(serial_options());
  service.set_tenant_weight("heavy", 3);
  service.set_tenant_weight("light", 1);
  std::vector<CompileRequest> requests;
  for (int i = 0; i < 12; ++i) requests.push_back(instant_request(i, "heavy"));
  for (int i = 0; i < 4; ++i) requests.push_back(instant_request(i, "light"));
  const std::vector<CompileOutcome> outcomes = service.run(std::move(requests));

  const std::vector<unsigned> heavy = dispatch_slots(outcomes, "heavy");
  const std::vector<unsigned> light = dispatch_slots(outcomes, "light");
  for (unsigned window = 0; window < 4; ++window) {
    const auto in_window = [&](unsigned slot) {
      return slot >= window * 4 && slot < (window + 1) * 4;
    };
    EXPECT_EQ(std::count_if(heavy.begin(), heavy.end(), in_window), 3)
        << "window " << window;
    EXPECT_EQ(std::count_if(light.begin(), light.end(), in_window), 1)
        << "window " << window;
  }
}

TEST(Scheduling, DispatchOrderIdenticalSerialAndPooled) {
  // All jobs are submitted before drain and pops are serialized, so the WFQ
  // sequence is a pure function of the submission set — any worker count.
  const auto build = [] {
    std::vector<CompileRequest> requests;
    for (int i = 0; i < 9; ++i) requests.push_back(instant_request(i, "a"));
    for (int i = 0; i < 5; ++i) requests.push_back(instant_request(i, "b"));
    return requests;
  };
  CompileService serial(serial_options());
  ServiceOptions pooled_options = serial_options();
  pooled_options.workers = 4;
  CompileService pooled(pooled_options);
  serial.set_tenant_weight("a", 2);
  pooled.set_tenant_weight("a", 2);

  const auto serial_out = serial.run(build());
  const auto pooled_out = pooled.run(build());
  ASSERT_EQ(serial_out.size(), pooled_out.size());
  for (std::size_t i = 0; i < serial_out.size(); ++i) {
    EXPECT_EQ(serial_out[i].dispatch_index, pooled_out[i].dispatch_index)
        << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

TEST(Budgets, ExhaustionReturnsDeadlineExceededWithPartialStats) {
  // Learn the characterize-stage cost, then grant exactly that much: the
  // job must complete characterize, charge it, and die before schedule with
  // the partial stage trace intact.
  const CompileRequest probe = corpus::source_request(3);
  CompileService oracle(serial_options());
  const CompileOutcome full = oracle.run({probe}).front();
  ASSERT_TRUE(full.status.ok());
  ASSERT_GE(full.stages.size(), 4u);
  const std::uint64_t characterize_cost = full.stages[0].cycles;
  ASSERT_GT(characterize_cost, 0u);

  CompileService service(serial_options());
  CompileRequest capped = probe;
  capped.cycle_budget = characterize_cost;  // stage completes, budget spent
  const CompileOutcome outcome = service.run({capped}).front();
  EXPECT_EQ(outcome.status.code(), ErrorCode::kDeadlineExceeded);
  ASSERT_EQ(outcome.stages.size(), 1u) << "partial trace lost";
  EXPECT_EQ(outcome.stages[0].stage, Stage::kCharacterize);
  EXPECT_EQ(outcome.cycles_charged, characterize_cost);
  EXPECT_TRUE(outcome.bitstream.empty());
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(Budgets, WarmCacheSucceedsWhereColdExhausts) {
  // The budget meters actual work: a budget far too small for a cold
  // compile is ample once every stage is a 1-cycle hit.
  const CompileRequest probe = corpus::source_request(4);
  constexpr std::uint64_t kTinyBudget = 8;

  CompileService cold(serial_options());
  CompileRequest capped = probe;
  capped.cycle_budget = kTinyBudget;
  EXPECT_EQ(cold.run({capped}).front().status.code(),
            ErrorCode::kDeadlineExceeded);

  CompileService warm(serial_options());
  const CompileOutcome uncapped = warm.run({probe}).front();
  ASSERT_TRUE(uncapped.status.ok());
  const CompileOutcome warm_capped = warm.run({capped}).front();
  EXPECT_TRUE(warm_capped.status.ok())
      << warm_capped.status.to_string();
  EXPECT_EQ(warm_capped.fingerprint(), uncapped.fingerprint());
  EXPECT_LE(warm_capped.cycles_charged, kTinyBudget);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, BeforeDispatchSkipsAllStages) {
  CompileService service(serial_options());
  const std::uint64_t id = service.submit(corpus::source_request(0));
  EXPECT_TRUE(service.cancel(id));
  service.drain();
  const CompileOutcome& outcome = service.outcome(id);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kCancelled);
  EXPECT_TRUE(outcome.stages.empty());
  EXPECT_EQ(outcome.cycles_charged, 0u);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_FALSE(service.cancel(id)) << "finished job still cancellable";
}

TEST(Cancellation, MidStageAbortLeavesCacheUncorrupted) {
  // The stage hook fires after the pre-stage checks, so cancelling one's
  // own job at kSchedule exercises the mid-compute abort between
  // scheduling/binding and datapath generation. The aborted compute must
  // insert nothing, and a clean re-run must match the never-cancelled
  // oracle byte for byte.
  const CompileRequest request = corpus::source_request(6);

  CompileService oracle(serial_options());
  const CompileOutcome clean = oracle.run({request}).front();
  ASSERT_TRUE(clean.status.ok());

  CompileService* victim_service = nullptr;
  ServiceOptions options = serial_options();
  options.stage_hook = [&](std::uint64_t job, const CompileRequest&,
                           Stage stage) {
    if (job == 0 && stage == Stage::kSchedule) {
      victim_service->cancel(job);
    }
  };
  CompileService service(options);
  victim_service = &service;

  const std::uint64_t key = schedule_key(request.source, request.flow);
  const CompileOutcome cancelled = service.run({request}).front();
  EXPECT_EQ(cancelled.status.code(), ErrorCode::kCancelled);
  EXPECT_FALSE(service.cache().contains(Stage::kSchedule, key))
      << "aborted compute leaked into the cache";
  EXPECT_EQ(service.cache().stats().computes, 1u)  // characterize only
      << "schedule stage insert happened despite cancellation";

  // Disarm the hook path (job id 1 now) and recompile cleanly in the same
  // service: identical to the never-cancelled oracle.
  const CompileOutcome retried = service.run({request}).front();
  ASSERT_TRUE(retried.status.ok()) << retried.status.to_string();
  EXPECT_EQ(retried.fingerprint(), clean.fingerprint());
  EXPECT_EQ(retried.bitstream, clean.bitstream);
}

TEST(Cancellation, DoesNotDisturbNeighbours) {
  // Cancel every even job in a 12-job corpus; the odd jobs must produce
  // exactly their solo-run results.
  const std::vector<CompileRequest> corpus =
      corpus::mixed_corpus(12, 0xBEEF, {"a", "b"});
  std::vector<CompileOutcome> solo;
  for (const CompileRequest& request : corpus) {
    CompileService fresh(serial_options());
    solo.push_back(fresh.run({request}).front());
  }

  CompileService service(serial_options());
  std::vector<std::uint64_t> ids;
  for (const CompileRequest& request : corpus) {
    ids.push_back(service.submit(request));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(service.cancel(ids[i]));
  }
  service.drain();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const CompileOutcome& outcome = service.outcome(ids[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(outcome.status.code(), ErrorCode::kCancelled) << "job " << i;
    } else {
      EXPECT_EQ(outcome.status.code(), solo[i].status.code()) << "job " << i;
      EXPECT_EQ(outcome.fingerprint(), solo[i].fingerprint()) << "job " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// In-flight dedup
// ---------------------------------------------------------------------------

TEST(Dedup, SixteenWayBurstCompilesEachDigestOnce) {
  // 16 identical jobs racing through a pooled service: exactly one compute
  // per stage digest, identical artifacts for every job, and the lookup
  // ledger balances (hits + misses + inflight_waits == lookups).
  ServiceOptions options = serial_options();
  options.workers = 8;
  CompileService service(options);
  const CompileRequest request = corpus::source_request(2);
  std::vector<CompileRequest> burst(16, request);
  const std::vector<CompileOutcome> outcomes = service.run(std::move(burst));

  ASSERT_EQ(outcomes.size(), 16u);
  for (const CompileOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
    EXPECT_EQ(outcome.fingerprint(), outcomes.front().fingerprint());
    EXPECT_EQ(outcome.bitstream, outcomes.front().bitstream);
    ASSERT_EQ(outcome.stages.size(), 4u);
  }
  const FlowCacheStats stats = service.cache().stats();
  EXPECT_EQ(stats.computes, 4u) << "a digest was compiled more than once";
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.rot_detected, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.inflight_waits, 16u * 4u);
}

TEST(Dedup, DistinctDigestsStillCompileIndependently) {
  ServiceOptions options = serial_options();
  options.workers = 4;
  CompileService service(options);
  std::vector<CompileRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(corpus::source_request(i, "t"));
  }
  const auto outcomes = service.run(std::move(requests));
  for (const CompileOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
  }
  // 4 distinct sources share one characterization; schedule/map/bitstream
  // are per-source: 1 + 3 * 4 computes.
  EXPECT_EQ(service.cache().stats().computes, 13u);
}

// ---------------------------------------------------------------------------
// Request validation and bookkeeping
// ---------------------------------------------------------------------------

TEST(Service, RequestWithoutSourceOrNetlistIsRejected) {
  CompileService service(serial_options());
  CompileRequest empty;
  empty.characterize = false;
  const CompileOutcome outcome = service.run({empty}).front();
  EXPECT_EQ(outcome.status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(service.stats().failed, 1u);
}

// The backend rejects a channel capacity of 0; the failed map stage caches
// nothing, so the bitstream stage never runs.
TEST(Service, InvalidBackendOptionsInsertNoMapEntry) {
  CompileService service(serial_options());
  CompileRequest request = corpus::source_request(1, "t");
  request.backend.route.channel_capacity = 0.0;
  const CompileOutcome outcome = service.run({request}).front();
  EXPECT_EQ(outcome.status.code(), ErrorCode::kInvalidArgument);
  ASSERT_FALSE(outcome.stages.empty());
  const StageTrace& last = outcome.stages.back();
  EXPECT_EQ(last.stage, Stage::kMap);
  EXPECT_FALSE(service.cache().contains(Stage::kMap, last.key));
  EXPECT_TRUE(outcome.bitstream.empty());
  EXPECT_EQ(service.stats().failed, 1u);
}

// The backend maps what it is given, so the service sweeps a netlist-level
// module where it enters: the job's digest, map key and bitstream are those
// of the live netlist, and the caller's module is left as it was.
TEST(Service, NetlistLevelRequestIsSweptWhereItEnters) {
  Rng rng(0x5EED);
  CompileRequest request = corpus::netlist_request(rng, 7, "t");
  hw::Module with_dead = *request.module;
  const hw::WireId one = with_dead.make_const(1, 1);
  const hw::WireId d = with_dead.add_wire(16, "dead_d");
  const hw::WireId q = with_dead.make_register(d, one, 0, "dead_q");
  hw::Cell add;
  add.kind = hw::CellKind::kAdd;
  add.inputs = {q, q};
  add.outputs = {d};
  with_dead.add_cell(std::move(add));
  const std::uint64_t submitted_digest = with_dead.digest();
  request.module = std::make_shared<hw::Module>(std::move(with_dead));

  hw::Module live = *request.module;
  ASSERT_GT(hw::sweep_dead_cells(live), 0u);
  const nx::NxDevice device = nx::make_device(request.flow.target);
  auto direct = nx::run_backend(live, device, request.backend);
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();

  CompileService service(serial_options());
  const CompileOutcome outcome = service.run({request}).front();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.netlist_digest, live.digest());
  EXPECT_EQ(outcome.bitstream, direct.value().bitstream);
  EXPECT_EQ(outcome.timing.fmax_mhz, direct.value().timing.fmax_mhz);
  ASSERT_FALSE(outcome.stages.empty());
  EXPECT_EQ(outcome.stages.front().stage, Stage::kMap);
  EXPECT_EQ(outcome.stages.front().key,
            map_key(live.digest(), request.flow.target, request.backend));
  EXPECT_EQ(request.module->digest(), submitted_digest);
}

TEST(Service, TenantStatsTrackSubmissionAndDispatch) {
  CompileService service(serial_options());
  std::vector<CompileRequest> requests;
  for (int i = 0; i < 3; ++i) requests.push_back(instant_request(i, "x"));
  for (int i = 0; i < 2; ++i) requests.push_back(instant_request(i, "y"));
  (void)service.run(std::move(requests));
  const std::vector<TenantStats> tenants = service.tenant_stats();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].tenant, "x");
  EXPECT_EQ(tenants[0].submitted, 3u);
  EXPECT_EQ(tenants[0].dispatched, 3u);
  EXPECT_EQ(tenants[1].tenant, "y");
  EXPECT_EQ(tenants[1].submitted, 2u);
  EXPECT_EQ(tenants[1].dispatched, 2u);
  EXPECT_EQ(service.stats().submitted, 5u);
  EXPECT_EQ(service.stats().completed, 5u);
}

}  // namespace
}  // namespace hermes::svc
