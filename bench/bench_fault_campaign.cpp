// TMR — radiation-hardening effectiveness (paper Sec. I: NG-ULTRA's TMR /
// ECC / memory integrity "completely transparent to the application
// developer"; Sec. IV: BL1 flash redundancy).
//
// SEU injection campaigns across protection schemes and upset rates
// (ablation D4), plus the flash-bank TMR recovery measurement.
#include <benchmark/benchmark.h>

#include "boot/flash.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fault/campaign.hpp"
#include "fault/scrub_memory.hpp"
#include "fault/seu.hpp"
#include "hls/flow.hpp"
#include "hw/tmr_transform.hpp"
#include "nxmap/flow.hpp"

namespace {

using namespace hermes;
using namespace hermes::fault;

/// Ablation D4: none vs EDAC vs TMR under an upset-rate sweep.
void BM_ScrubCampaign(benchmark::State& state) {
  const Protection protection = static_cast<Protection>(state.range(0));
  const double rate = 1e-5 * static_cast<double>(state.range(1));
  state.SetLabel(std::string(to_string(protection)) + " rate=" +
                 std::to_string(state.range(1)) + "e-5");

  ScrubReport total;
  std::size_t intervals = 0;
  for (auto _ : state) {
    ScrubMemory memory(16 * 1024, protection);
    for (std::size_t i = 0; i < memory.size(); ++i) {
      memory.write(i, static_cast<std::uint32_t>(i * 2654435761u));
    }
    Rng rng(1234);
    SeuCampaignConfig config;
    config.upset_probability_per_word = rate;
    for (int interval = 0; interval < 20; ++interval) {
      const ScrubReport report = memory.inject_and_scrub(config, rng);
      total.injected_upsets += report.injected_upsets;
      total.corrected += report.corrected;
      total.detected_uncorrectable += report.detected_uncorrectable;
      total.silent_corruptions += report.silent_corruptions;
      ++intervals;
    }
    benchmark::ClobberMemory();
  }
  state.counters["upsets"] = static_cast<double>(total.injected_upsets);
  state.counters["corrected"] = static_cast<double>(total.corrected);
  state.counters["detected_unc"] =
      static_cast<double>(total.detected_uncorrectable);
  state.counters["silent"] = static_cast<double>(total.silent_corruptions);
  state.counters["silent_per_Mbit_interval"] =
      total.silent_corruptions * 1e6 /
      (static_cast<double>(16 * 1024 * 32) * static_cast<double>(intervals));
}
BENCHMARK(BM_ScrubCampaign)
    ->ArgsProduct({{0, 1, 2},       // Protection
                   {1, 10, 100}});  // rate multiplier

/// Campaign-runner scaling: the same multi-replica scrub campaign on the
/// serial path (0-worker pool) vs the process-wide pool. Results are
/// bit-identical by the per-replica-seed determinism contract; only the
/// wall clock may differ.
void BM_ParallelScrubCampaign(benchmark::State& state) {
  const bool threaded = state.range(0) != 0;
  ScrubCampaignPlan plan;
  plan.replicas = 16;
  plan.memory_words = 4096;
  plan.protection = Protection::kTmr;
  plan.intervals = 8;
  plan.seu.upset_probability_per_word = 1e-3;

  ThreadPool serial(0);
  ThreadPool* pool = threaded ? &ThreadPool::global() : &serial;
  ScrubCampaignResult result;
  for (auto _ : state) {
    result = run_scrub_campaign(plan, pool);
    benchmark::ClobberMemory();
  }
  state.SetLabel(threaded
                     ? "pool x" + std::to_string(ThreadPool::global().size())
                     : "serial");
  state.counters["replicas"] = static_cast<double>(plan.replicas);
  state.counters["upsets"] = static_cast<double>(result.total.injected_upsets);
  state.counters["silent"] =
      static_cast<double>(result.total.silent_corruptions);
}
BENCHMARK(BM_ParallelScrubCampaign)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Shared accelerator + plan for the netlist SEU campaign family, so the
/// serial oracle and the bit-sliced engine are measured on identical work.
/// CampaignSliced.HlsAcceleratorCampaignBitIdenticalToSerial (tests/) checks
/// that the two engines agree on this plan.
const auto& seu_campaign_flow() {
  static const auto flow = [] {
    hls::FlowOptions opts;
    opts.top = "dot";
    return hls::run_flow(R"(
      int dot(int a[16], int b[16]) {
        int acc = 0;
        for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
        return acc;
      }
    )", opts);
  }();
  return flow;
}

NetlistSeuPlan seu_campaign_plan() {
  NetlistSeuPlan plan;
  plan.replicas = 126;  // two full 63-replica slice batches
  plan.cycles_before = 8;
  plan.cycles_after = 64;
  plan.inputs = {{"start", 1}};
  return plan;
}

/// Netlist SEU campaign over a real HLS accelerator: one golden + one faulty
/// Simulator replica per task, random register-bit flip, divergence watch.
void BM_NetlistSeuCampaign(benchmark::State& state) {
  const bool threaded = state.range(0) != 0;
  const auto& flow = seu_campaign_flow();
  if (!flow.ok()) {
    state.SkipWithError("flow failed");
    return;
  }
  const NetlistSeuPlan plan = seu_campaign_plan();

  ThreadPool serial(0);
  ThreadPool* pool = threaded ? &ThreadPool::global() : &serial;
  NetlistSeuResult result;
  for (auto _ : state) {
    result = run_netlist_seu_campaign(flow.value().fsmd.module, plan, pool);
    benchmark::ClobberMemory();
  }
  state.SetLabel(threaded
                     ? "pool x" + std::to_string(ThreadPool::global().size())
                     : "serial");
  state.counters["replicas"] = static_cast<double>(plan.replicas);
  state.counters["diverged"] = static_cast<double>(result.diverged);
  state.counters["plans_per_sec"] = benchmark::Counter(
      static_cast<double>(plan.replicas) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetlistSeuCampaign)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// The same campaign on the bit-sliced engine: 63 fault replicas + 1 golden
/// lane per 64-bit word, one simulator pass per batch instead of one golden
/// + one faulty simulation per replica.
void BM_NetlistSeuCampaignSliced(benchmark::State& state) {
  const bool threaded = state.range(0) != 0;
  const auto& flow = seu_campaign_flow();
  if (!flow.ok()) {
    state.SkipWithError("flow failed");
    return;
  }
  const NetlistSeuPlan plan = seu_campaign_plan();

  ThreadPool serial(0);
  ThreadPool* pool = threaded ? &ThreadPool::global() : &serial;
  NetlistSeuResult result;
  for (auto _ : state) {
    result =
        run_netlist_seu_campaign_sliced(flow.value().fsmd.module, plan, pool);
    benchmark::ClobberMemory();
  }
  state.SetLabel(threaded
                     ? "pool x" + std::to_string(ThreadPool::global().size())
                     : "serial");
  state.counters["replicas"] = static_cast<double>(plan.replicas);
  state.counters["batches"] =
      static_cast<double>(batch_count(plan.replicas));
  state.counters["diverged"] = static_cast<double>(result.diverged);
  state.counters["plans_per_sec"] = benchmark::Counter(
      static_cast<double>(plan.replicas) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetlistSeuCampaignSliced)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Storage overhead vs protection (the cost column of the D4 table).
void BM_ProtectionOverhead(benchmark::State& state) {
  const Protection protection = static_cast<Protection>(state.range(0));
  ScrubMemory memory(1024, protection);
  for (auto _ : state) {
    benchmark::ClobberMemory();
  }
  state.SetLabel(to_string(protection));
  state.counters["raw_bits_per_word"] =
      static_cast<double>(memory.raw_bits()) / 1024.0;
  state.counters["overhead_pct"] =
      100.0 * (static_cast<double>(memory.raw_bits()) / (1024.0 * 32.0) - 1.0);
}
BENCHMARK(BM_ProtectionOverhead)->Arg(0)->Arg(1)->Arg(2);

/// Flash TMR recovery rate vs accumulated flips in a single replica.
void BM_FlashTmrRecovery(benchmark::State& state) {
  const std::size_t flips = static_cast<std::size_t>(state.range(0));
  std::uint64_t corrected = 0;
  bool intact = true;
  for (auto _ : state) {
    boot::FlashBank bank(256 * 1024, 3);
    std::vector<std::uint8_t> image(64 * 1024);
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<std::uint8_t>(i);
    }
    bank.program(0, image);
    Rng rng(7);
    bank.device(0).inject_bitflips(flips, rng);
    std::vector<std::uint8_t> readback(image.size());
    const auto result = bank.read(0, readback);
    corrected = result.corrected_bytes;
    intact = readback == image;
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(flips) + " flips in 1 replica");
  state.counters["corrected_bytes"] = static_cast<double>(corrected);
  state.counters["image_intact"] = intact ? 1 : 0;
}
BENCHMARK(BM_FlashTmrRecovery)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

/// Netlist FF-TMR cost: the same HLS accelerator plain, TMR'd, and
/// self-healing-TMR'd through the full NXmap backend — the area/Fmax price
/// of the "transparent" hardening.
void BM_NetlistTmrCost(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  static const char* kLabels[] = {"plain", "ff_tmr", "self_healing_tmr"};
  state.SetLabel(kLabels[variant]);

  hls::FlowOptions options;
  options.top = "dot";
  auto flow = hls::run_flow(R"(
    int dot(int a[16], int b[16]) {
      int acc = 0;
      for (int i = 0; i < 16; i = i + 1) { acc = acc + a[i] * b[i]; }
      return acc;
    }
  )", options);
  if (!flow.ok()) {
    state.SkipWithError("flow failed");
    return;
  }
  hw::TmrOptions tmr;
  tmr.self_healing = variant == 2;
  hw::TmrStats tmr_stats;
  const hw::Module module =
      variant == 0 ? flow.value().fsmd.module
                   : hw::tmr_transform(flow.value().fsmd.module, &tmr_stats, tmr);

  const nx::NxDevice device = nx::make_device(hls::ng_ultra());
  nx::BackendResult result;
  for (auto _ : state) {
    auto backend = nx::run_backend(module, device);
    if (backend.ok()) result = backend.take();
    benchmark::ClobberMemory();
  }
  state.counters["luts"] = static_cast<double>(result.mapped.utilization.luts);
  state.counters["ffs"] = static_cast<double>(result.mapped.utilization.ffs);
  state.counters["fmax_mhz"] = result.timing.fmax_mhz;
  state.counters["voters"] = static_cast<double>(tmr_stats.voter_cells);
}
BENCHMARK(BM_NetlistTmrCost)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
