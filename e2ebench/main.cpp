// hermes_e2e — the end-to-end, per-layer benchmark of the HERMES pipeline.
//
//   hermes_e2e --workload <kernel_flow|dse_sweep|qual_campaign> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <file>]
//              [--source-id <text>]
//
// One process, one client thread, closed loop: the next op starts when the
// previous one returned. The last line of standard output is the result
// object; the line before it holds the run metadata. --trace 0 prints the
// end-to-end metrics; --trace 1 alternates untraced and traced ops and prints
// the per-layer metrics of the traced ones.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

using e2e::Metric;

/// Ops every run completes, whatever --seconds says: p90 then has at least
/// twenty samples beyond it, and the design figures cover the same ops on
/// every run of a seed.
constexpr std::size_t kMinOps = e2e::DesignTally::kQualityOps;
/// Timed set-ups per run, besides the cold one that builds the measured
/// instance; setup_s is their median. They are spread over the run rather
/// than made back to back, because the shared host has slow phases of a few
/// hundred milliseconds that would otherwise move every set-up of a run
/// together.
constexpr std::size_t kSetupRuns = 15;
/// Failed-check details logged per failure kind.
constexpr std::size_t kLoggedPerKind = 3;
/// A run stops after --seconds plus this grace even if kMinOps is not reached.
constexpr double kGraceSeconds = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] - '0';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && args->trace >= 0 &&
         !args->workload.empty();
}

/// A fixed single-thread spin, timed at process start and end: a run taken
/// during a slow phase of a shared host shows up as a slow spin.
double spin_ms() {
  const std::int64_t t0 = e2e::now_ns();
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
  return static_cast<double>(e2e::now_ns() - t0) / 1e6;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics: span self time per traced op (names ending in _ms),
/// counters per traced op, and the derived rates and shares.
std::vector<Metric> layer_metrics(const e2e::Trace& trace, double traced_ops,
                                  double p50_traced, double p50_untraced) {
  struct Entry {
    const char* name;
    const char* unit;
  };
  static constexpr Entry kCatalog[] = {
      {"frontend.parse_ms", "ms"},      {"frontend.typecheck_ms", "ms"},
      {"ir.lower_ms", "ms"},            {"ir.passes_ms", "ms"},
      {"ir.instrs_before", "count"},    {"ir.instrs_after", "count"},
      {"hls.schedule_ms", "ms"},        {"hls.bind_ms", "ms"},
      {"hls.fsmd_ms", "ms"},            {"hls.fsm_states", "count"},
      {"hls.cosim_ms", "ms"},           {"hls.cosim_cycles_per_s", "1/s"},
      {"hls.accel_cycles", "cycles"},   {"hw.verilog_ms", "ms"},
      {"hw.sweep_ms", "ms"},            {"hw.cells", "count"},
      {"hw.cells_swept", "count"},      {"nxmap.techmap_ms", "ms"},
      {"nxmap.place_ms", "ms"},         {"nxmap.route_ms", "ms"},
      {"nxmap.sta_ms", "ms"},           {"nxmap.power_ms", "ms"},
      {"nxmap.pack_ms", "ms"},          {"nxmap.verify_ms", "ms"},
      {"nxmap.hpwl", "tiles"},          {"nxmap.luts", "count"},
      {"boot.env_ms", "ms"},            {"boot.stage_ms", "ms"},
      {"boot.chain_ms", "ms"},          {"boot.sim_cycles", "cycles"},
      {"boot.flash_corrected_bytes", "bytes"},
      {"boot.integrity_retries", "count"},
      {"boot.spw_fallbacks", "count"},  {"boot.efpga_frame_rewrites", "count"},
      {"boot.efpga_scrub_corrections", "count"},
      {"boot.recovered_share", "ratio"},
      {"fault.seu_batch_ms", "ms"},     {"fault.seu_replicas_per_s", "1/s"},
      {"fault.seu_diverged_share", "ratio"},
      {"fault.injector_fires", "count"}, {"fault.scrub_ms", "ms"},
      {"svc.stage.characterize_ms", "ms"}, {"svc.stage.schedule_ms", "ms"},
      {"svc.stage.map_ms", "ms"},       {"svc.stage.bitstream_ms", "ms"},
      {"svc.cache.hits", "count"},      {"svc.cache.misses", "count"},
      {"svc.cache.hit_share", "ratio"}, {"svc.cache.bytes", "bytes"},
      {"svc.cache.evictions", "count"}, {"harness.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  const std::map<std::string, double> self = trace.self_ms();
  double layer_self_ms = 0.0;
  for (const auto& [name, ms] : self) {
    if (name != "op") layer_self_ms += ms;
  }
  const std::map<std::string, double> derived = {
      {"hls.cosim_cycles_per_s",
       ratio(trace.counter("hls.accel_cycles"), trace.total_ms("hls.cosim") / 1e3)},
      {"fault.seu_replicas_per_s",
       ratio(trace.counter("fault.seu_replicas"),
             trace.total_ms("fault.seu_batch") / 1e3)},
      {"fault.seu_diverged_share",
       ratio(trace.counter("fault.seu_diverged"), trace.counter("fault.seu_replicas"))},
      {"boot.recovered_share",
       ratio(trace.counter("boot.recovered"), trace.counter("boot.episodes"))},
      {"svc.cache.hit_share",
       ratio(trace.counter("svc.cache.hits"),
             trace.counter("svc.cache.hits") + trace.counter("svc.cache.misses"))},
      {"harness.coverage", ratio(layer_self_ms, trace.total_ms("op"))},
      {"trace.overhead", ratio(p50_traced, p50_untraced) - 1.0},
  };
  std::vector<Metric> out;
  for (const Entry& entry : kCatalog) {
    const std::string name = entry.name;
    double value = 0.0;
    if (const auto it = derived.find(name); it != derived.end()) {
      value = it->second;
    } else if (const auto g = trace.gauges().find(name); g != trace.gauges().end()) {
      value = g->second;
    } else if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
      const auto it2 = self.find(name.substr(0, name.size() - 3));
      value = it2 == self.end() ? 0.0 : ratio(it2->second, traced_ops);
    } else {
      value = ratio(trace.counter(name), traced_ops);
    }
    out.push_back({name, value, entry.unit});
  }
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
}

/// Keeps letters, digits and ._- so the metadata line stays valid JSON.
std::string json_safe(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
        c == '-') {
      out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hermes_e2e --workload <kernel_flow|dse_sweep|"
                 "qual_campaign> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--source-id <text>]\n");
    return 2;
  }
  using Factory = std::unique_ptr<e2e::Workload> (*)(std::uint64_t);
  Factory factory = nullptr;
  if (args.workload == "kernel_flow") factory = e2e::make_kernel_flow;
  if (args.workload == "dse_sweep") factory = e2e::make_dse_sweep;
  if (args.workload == "qual_campaign") factory = e2e::make_qual_campaign;
  if (factory == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Fixed allocator thresholds. By default glibc moves its mmap threshold
  // as blocks are freed, so whether the multi-MiB flash and memory images
  // of each op are fresh mmaps (page-faulted every op) or reused heap pages
  // depends on the allocation history: identical ops then differ 2x in time
  // from one seed or run to the next. Fixed thresholds keep every op on the
  // heap path.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  const double spin_start_ms = spin_ms();

  // ---- set-up: the cold one builds the measured instance ----
  const auto timed_setup = [&](std::unique_ptr<e2e::Workload>* out) {
    const std::int64_t t0 = e2e::now_ns();
    *out = factory(args.seed);
    return static_cast<double>(e2e::now_ns() - t0) / 1e9;
  };
  std::unique_ptr<e2e::Workload> workload;
  const double setup_cold_s = timed_setup(&workload);
  // The timed set-ups build and drop a second instance. They run only in
  // the untraced run, after the ops that set peak_rss_mb and the design
  // figures, so neither sees them.
  std::vector<double> setup_s;
  const auto extra_setup = [&] {
    std::unique_ptr<e2e::Workload> instance;
    setup_s.push_back(timed_setup(&instance));
  };

  // ---- closed loop ----
  e2e::Trace trace;
  std::vector<double> untraced_ms, traced_ms;
  double cpu_ms = 0.0;
  std::size_t ops = 0, failed = 0;
  std::map<std::string, std::size_t> failed_by;  // failed ops per check kind
  const std::int64_t start = e2e::now_ns();
  const auto elapsed_s = [start] {
    return static_cast<double>(e2e::now_ns() - start) / 1e9;
  };
  // Peak RSS after set-up and the first kMinOps ops: a fixed amount of work,
  // so a faster build that completes more ops is not charged for the
  // compile service's growing job history.
  double peak_rss_mb = 0.0;
  const auto sample_rss = [&peak_rss_mb] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  };
  while ((elapsed_s() < args.seconds || ops < kMinOps) &&
         elapsed_s() < args.seconds + kGraceSeconds) {
    const bool traced = args.trace == 1 && ops % 2 == 1;
    trace.set_op(static_cast<std::uint32_t>(ops));
    const e2e::OpResult r = workload->run_op(ops, traced ? &trace : nullptr);
    (traced ? traced_ms : untraced_ms).push_back(r.wall_ms);
    cpu_ms += r.cpu_ms;
    if (!r.ok) ++failed;
    std::set<std::string> kinds;
    for (const e2e::Failure& f : r.failures) {
      if (!kinds.insert(f.kind).second) continue;
      if (++failed_by[f.kind] <= kLoggedPerKind) {
        std::fprintf(stderr, "op %zu failed %s: %s\n", ops, f.kind.c_str(),
                     f.detail.c_str());
      }
    }
    ++ops;
    if (ops == kMinOps) sample_rss();
    if (args.trace == 0 && ops >= kMinOps && setup_s.size() < kSetupRuns &&
        elapsed_s() >= args.seconds * static_cast<double>(setup_s.size() + 1) /
                           (kSetupRuns + 1)) {
      extra_setup();
    }
  }
  if (ops < kMinOps) sample_rss();
  while (args.trace == 0 && setup_s.size() < kSetupRuns) extra_setup();

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    double total_ms = 0.0;
    for (double ms : untraced_ms) total_ms += ms;
    const double n = static_cast<double>(ops);
    metrics = {
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"op_ms_p50", percentile(untraced_ms, 0.5), "ms"},
        {"op_ms_p90", percentile(untraced_ms, 0.9), "ms"},
        {"ops_per_s", ratio(n, total_ms / 1e3), "1/s"},
        {"cpu_ms_per_op", ratio(cpu_ms, n), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    workload->quality_metrics(metrics);
  } else {
    workload->finish_trace(trace);
    metrics = layer_metrics(trace, static_cast<double>(traced_ms.size()),
                            percentile(traced_ms, 0.5),
                            percentile(untraced_ms, 0.5));
    if (!args.trace_out.empty() && !trace.write_json(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }
  workload.reset();

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int allowed =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  const double spin_end_ms = spin_ms();
  std::string failed_kinds;
  for (const auto& [kind, count] : failed_by) {
    failed_kinds += (failed_kinds.empty() ? "\"" : ", \"") + kind +
                    "\": " + std::to_string(count);
  }
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"source\": \"%s\", \"nproc\": %u, "
      "\"cpus_allowed\": %d, \"spin_ms_start\": %.4f, \"spin_ms_end\": %.4f, "
      "\"ops\": %zu, \"setup_cold_s\": %.6f, \"setup_runs\": %zu, "
      "\"failed_by\": {%s}}}\n",
      args.workload.c_str(), args.seed, args.seconds, args.trace,
      json_safe(args.source_id).c_str(), std::thread::hardware_concurrency(),
      allowed, spin_start_ms, spin_end_ms, ops, setup_cold_s, setup_s.size(),
      failed_kinds.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 ? "true" : "false", ops, failed);
  print_metrics(metrics);
  std::printf("}}\n");
  return 0;
}
