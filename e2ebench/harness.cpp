#include "harness.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/sha256.hpp"
#include "nxmap/bitstream.hpp"

namespace e2e {

using namespace hermes;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---- Trace ------------------------------------------------------------------

std::size_t Trace::begin(const char* name) {
  Record record;
  record.name = name;
  record.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  record.op = op_;
  record.begin_ns = now_ns();
  records_.push_back(record);
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Trace::end(std::size_t id) {
  const std::int64_t t = now_ns();
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    records_[top].end_ns = t;
    if (top == id) break;
  }
}

void Trace::count(const std::string& name, double value) {
  counters_[name] += value;
}

std::map<std::string, double> Trace::self_ms() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.begin_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out[r.name] += static_cast<double>(r.end_ns - r.begin_ns - child_ns[i]) / 1e6;
  }
  return out;
}

double Trace::total_ms(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.end_ns - r.begin_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double Trace::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

bool Trace::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().begin_ns;
  std::fprintf(file, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u}}",
                 i == 0 ? "" : ",", r.name,
                 static_cast<double>(r.begin_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.begin_ns) / 1e3, r.op);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

// ---- OpClock -----------------------------------------------------------------

OpClock::OpClock(Trace* trace) : trace_(trace) {
  if (trace_ != nullptr) span_ = trace_->begin("op");
  cpu0_ = process_cpu_ns();
  wall0_ = now_ns();
}

void OpClock::stop() {
  if (!running_) return;
  running_ = false;
  wall_ms_ = static_cast<double>(now_ns() - wall0_) / 1e6;
  cpu_ms_ = static_cast<double>(process_cpu_ns() - cpu0_) / 1e6;
  if (trace_ != nullptr) trace_->end(span_);
}

// ---- DesignTally ---------------------------------------------------------------

void DesignTally::add(std::size_t op, double fmax_mhz, double hpwl,
                      double luts, double bitstream_bytes) {
  if (op >= kQualityOps) return;
  const double values[4] = {fmax_mhz, hpwl, luts, bitstream_bytes};
  // Every figure is positive for a placed design; the floor keeps a
  // degenerate one-LUT design from sending the log to -inf.
  for (int i = 0; i < 4; ++i) log_sum_[i] += std::log(std::max(values[i], 1e-9));
  ++n_;
}

void DesignTally::append_to(std::vector<Metric>& out) const {
  static const char* const kNames[4] = {"fmax_mhz_geomean", "hpwl_geomean",
                                        "luts_geomean",
                                        "bitstream_bytes_geomean"};
  static const char* const kUnits[4] = {"MHz", "tiles", "count", "bytes"};
  for (int i = 0; i < 4; ++i) {
    const double value =
        n_ == 0 ? 0.0 : std::exp(log_sum_[i] / static_cast<double>(n_));
    out.push_back({kNames[i], value, kUnits[i]});
  }
}

// ---- inputs --------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t z = seed ^ (stream * 0xD1B54A32D192ED03ULL) ^
                    (index * 0x9E3779B97F4A7C15ULL);
  for (int round = 0; round < 2; ++round) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  return z;
}

KernelInstance draw_kernel(Rng& rng, unsigned family) {
  const auto in = [&rng](unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng.next_below(hi - lo + 1));
  };
  KernelInstance k;
  switch (family % kFamilies) {
    case 0: {
      // Power-of-two widths only. With any other width the address multiply
      // of img[y][x] shares a multiplier FU, and at 2 or 4 multipliers the
      // generated hardware disagrees with the IR interpreter (a known HLS
      // defect, described in README.md under "Known defect").
      const unsigned w = rng.next_below(2) == 0 ? 8 : 16;
      k.spec = apps::sobel_kernel(w, in(8, 12));
      break;
    }
    case 1: {
      const unsigned taps = in(4, 10);
      k.spec = apps::fir_kernel(taps, in(32, 64));
      break;
    }
    case 2: {
      const unsigned inputs = in(6, 12);
      k.spec = apps::dense_relu_kernel(inputs, in(6, 12));
      break;
    }
    case 3:
      k.spec = apps::matmul_kernel(in(5, 8));
      break;
    default:
      k.spec = apps::histogram_kernel(in(64, 192));
      break;
  }
  static constexpr double kPeriods[] = {6.25, 8.0, 10.0, 12.5};
  static constexpr unsigned kMultipliers[] = {1, 2, 4};
  k.flow.top = k.spec.name;
  k.flow.constraints.clock_period_ns = kPeriods[rng.next_below(4)];
  k.flow.constraints.multipliers = kMultipliers[rng.next_below(3)];
  k.backend.target_period_ns = k.flow.constraints.clock_period_ns;
  k.backend.place.seed = rng.next_u64();
  return k;
}

std::map<std::size_t, std::vector<std::uint64_t>> draw_inputs(
    Rng& rng, const hls::FlowResult& flow) {
  std::map<std::size_t, std::vector<std::uint64_t>> images;
  const auto& memories = flow.function.memories();
  for (std::size_t m = 0; m < memories.size(); ++m) {
    if (!memories[m].is_interface) continue;
    std::vector<std::uint64_t> image(memories[m].depth);
    for (auto& word : image) word = rng.next_u64();
    images[m] = std::move(image);
  }
  return images;
}

std::vector<std::uint8_t> draw_bytes(Rng& rng, std::size_t bytes) {
  std::vector<std::uint8_t> image(bytes);
  for (auto& byte : image) byte = static_cast<std::uint8_t>(rng.next_u64());
  return image;
}

BootMedia make_boot_media(Rng& rng) {
  BootMedia media;
  media.bl1 = draw_bytes(rng, 4096 + rng.next_below(4096));
  boot::LoadEntry fpga;
  fpga.kind = boot::LoadKind::kBitstream;
  fpga.name = "accel";
  boot::LoadEntry sw;
  sw.kind = boot::LoadKind::kSoftware;
  sw.name = "app_sw";
  sw.dest_addr = boot::MemoryMap::kDdrBase + 0x10000;
  boot::LoadEntry bl2;
  bl2.kind = boot::LoadKind::kBl2;
  bl2.name = "bl2";
  bl2.dest_addr = boot::MemoryMap::kDdrBase;
  media.list.entries = {fpga, sw, bl2};
  media.images.emplace_back();
  media.images.push_back(draw_bytes(rng, 8192 + rng.next_below(8192)));
  media.images.push_back(draw_bytes(rng, 2048 + rng.next_below(2048)));
  return media;
}

bool deployed_images_intact(const boot::BootEnvironment& env,
                            const BootMedia& media) {
  for (std::size_t i = 0; i < media.list.entries.size(); ++i) {
    const boot::LoadEntry& entry = media.list.entries[i];
    if (entry.kind == boot::LoadKind::kBitstream) continue;
    std::vector<std::uint8_t> deployed(media.images[i].size());
    if (!env.soc.read_bytes(entry.dest_addr, deployed).ok()) return false;
    if (sha256(deployed) != sha256(media.images[i])) return false;
  }
  return true;
}

bool expected_config_digest(const std::vector<std::uint8_t>& bitstream,
                            std::uint64_t* digest) {
  auto parsed = nx::parse_bitstream(bitstream);
  if (!parsed.ok()) return false;
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  for (const nx::BitstreamFrame& frame : parsed.value().frames) {
    mix(frame.column);
    mix(frame.words.size());
    mix(frame.crc);
    for (std::uint32_t word : frame.words) mix(word);
  }
  *digest = hash;
  return true;
}

}  // namespace e2e
