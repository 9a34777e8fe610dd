// Shared pieces of the end-to-end benchmark: the in-memory span recorder of
// the traced run, the op clock, the workload interface and the seeded input
// generators (kernel instances, cosim inputs, boot media).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/kernels.hpp"
#include "boot/bl.hpp"
#include "common/rng.hpp"
#include "hls/flow.hpp"
#include "nxmap/flow.hpp"

namespace e2e {

std::int64_t now_ns();            ///< steady clock
std::int64_t process_cpu_ns();    ///< CPU time of every thread of the process

/// Spans and counters of the traced run, kept in memory and written out when
/// the run ends. A span's self time is its duration minus the time its child
/// spans cover. A null Trace* means tracing is off.
class Trace {
 public:
  struct Record {
    const char* name = "";
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
  };

  /// Opens a span as a child of the innermost open one.
  std::size_t begin(const char* name);
  /// Closes span `id` (and any span still open inside it).
  void end(std::size_t id);
  /// Adds `value` to a counter; the report divides it by the traced ops.
  void count(const std::string& name, double value);
  /// Sets a gauge; the report prints its last value.
  void gauge(const std::string& name, double value) { gauges_[name] = value; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Total self time (ms) per span name.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Total duration (ms) of spans named `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  /// Chrome Trace Event JSON (complete "X" events, one per span).
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::uint32_t op_ = 0;
};

/// RAII span; does nothing when `trace` is null.
class Span {
 public:
  Span(Trace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->begin(name) : 0) {}
  ~Span() {
    if (trace_ != nullptr) trace_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  std::size_t id_;
};

/// Times the blocking part of one op: wall and process-CPU time, plus the
/// "op" root span when traced. Output checks run after stop(), untimed.
class OpClock {
 public:
  explicit OpClock(Trace* trace);
  void stop();
  [[nodiscard]] double wall_ms() const { return wall_ms_; }
  [[nodiscard]] double cpu_ms() const { return cpu_ms_; }

 private:
  Trace* trace_;
  std::size_t span_ = 0;
  std::int64_t wall0_ = 0, cpu0_ = 0;
  double wall_ms_ = 0.0, cpu_ms_ = 0.0;
  bool running_ = true;
};

/// One failed output check: `kind` names the check (the run metadata counts
/// failed ops per kind), `detail` is for the log.
struct Failure {
  std::string kind;
  std::string detail;
};

/// Outcome of one op: its timing and every output check that failed. Every
/// check runs whatever the earlier ones found, so one failure kind never
/// hides another.
struct OpResult {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  bool ok = true;
  std::vector<Failure> failures;

  void fail(std::string kind, std::string detail) {
    failures.push_back({std::move(kind), std::move(detail)});
    ok = false;
  }
  void take_times(const OpClock& clock) {
    wall_ms = clock.wall_ms();
    cpu_ms = clock.cpu_ms();
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Geometric mean of the design figures of the first kQualityOps ops, so the
/// figures depend on the seed alone and not on how many ops a run completes.
class DesignTally {
 public:
  static constexpr std::size_t kQualityOps = 200;
  void add(std::size_t op, double fmax_mhz, double hpwl, double luts,
           double bitstream_bytes);
  void append_to(std::vector<Metric>& out) const;

 private:
  double log_sum_[4] = {0, 0, 0, 0};
  std::size_t n_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs op `index`; its inputs depend on the seed and the index only.
  virtual OpResult run_op(std::size_t index, Trace* trace) = 0;
  /// Design-quality end-to-end metrics (fmax, hpwl, luts, bitstream bytes).
  virtual void quality_metrics(std::vector<Metric>& out) const = 0;
  /// Called once after the last traced op, to set end-of-run gauges.
  virtual void finish_trace(Trace& /*trace*/) {}
};

/// Builds a workload from its seed; this is the set-up the benchmark times.
std::unique_ptr<Workload> make_kernel_flow(std::uint64_t seed);
std::unique_ptr<Workload> make_dse_sweep(std::uint64_t seed);
std::unique_ptr<Workload> make_qual_campaign(std::uint64_t seed);

/// SplitMix64 of (seed, stream, index): the per-op input seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

/// One app-kernel instance with its HLS and backend constraints.
struct KernelInstance {
  hermes::apps::KernelSpec spec;
  hermes::hls::FlowOptions flow;
  hermes::nx::BackendOptions backend;
};

inline constexpr unsigned kFamilies = 5;  ///< sobel fir dense_relu matmul histogram

/// Draws geometry, clock period, multiplier count and place seed of one
/// instance of kernel family `family` (0..kFamilies-1).
KernelInstance draw_kernel(hermes::Rng& rng, unsigned family);

/// Seeded words for every interface memory of a compiled kernel.
std::map<std::size_t, std::vector<std::uint64_t>> draw_inputs(
    hermes::Rng& rng, const hermes::hls::FlowResult& flow);

/// Seeded byte image (boot payloads).
std::vector<std::uint8_t> draw_bytes(hermes::Rng& rng, std::size_t bytes);

/// What BL1 boots in the kernel_flow and qual_campaign workloads: a seeded
/// BL1 image and a load list of the accelerator bitstream, a software image
/// and the BL2 image. images[0], the bitstream, is filled in by the caller.
struct BootMedia {
  std::vector<std::uint8_t> bl1;
  hermes::boot::LoadList list;
  std::vector<std::vector<std::uint8_t>> images;  ///< parallel to list.entries
};
BootMedia make_boot_media(hermes::Rng& rng);

/// After a boot that reached the application: true when every deployed
/// software / BL2 image reads back from memory with the digest of the image
/// that was staged.
bool deployed_images_intact(const hermes::boot::BootEnvironment& env,
                            const BootMedia& media);

/// The configuration-memory digest Soc::efpga_config_digest() must report
/// after programming `bitstream`, computed from the parsed frames alone.
/// Returns false when the image does not parse.
bool expected_config_digest(const std::vector<std::uint8_t>& bitstream,
                            std::uint64_t* digest);

}  // namespace e2e
