#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/fnv.hpp"

namespace hermes::fault {
namespace {

/// FNV-1a, so a point's RNG stream depends on its name but not on the order
/// subsystems registered in.
std::uint64_t hash_name(std::string_view name) {
  return fnv::mix_bytes(fnv::kOffsetBasis, name);
}

}  // namespace

const FaultSchedule* FaultPlan::find(std::string_view name) const {
  for (const PointPlan& pp : points) {
    if (pp.point == name) return &pp.schedule;
  }
  return nullptr;
}

void FaultInjector::arm(Point& point) {
  const FaultSchedule* schedule = plan_.find(point.name);
  point.armed = schedule != nullptr;
  point.schedule = schedule ? *schedule : FaultSchedule{};
  point.rng.reseed(plan_.seed ^ hash_name(point.name));
  point.stats = {};
  point.burst_remaining = 0;
}

void FaultInjector::load_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  for (Point& point : points_) arm(point);
}

PointId FaultInjector::register_point(std::string_view name) {
  const PointId existing = find_point(name);
  if (existing != kNoFaultPoint) return existing;
  Point point;
  point.name = std::string(name);
  points_.push_back(std::move(point));
  arm(points_.back());
  return points_.size() - 1;
}

PointId FaultInjector::find_point(std::string_view name) const {
  for (PointId id = 0; id < points_.size(); ++id) {
    if (points_[id].name == name) return id;
  }
  return kNoFaultPoint;
}

bool FaultInjector::should_fire(PointId point) {
  if (point == kNoFaultPoint || point >= points_.size()) return false;
  Point& p = points_[point];
  const std::uint64_t op = p.stats.opportunities++;
  if (!p.armed) return false;
  if (p.burst_remaining > 0) {
    --p.burst_remaining;
    ++p.stats.fires;
    return true;
  }
  if (p.stats.fires >= p.schedule.max_fires) return false;
  if (op < p.schedule.window_begin || op >= p.schedule.window_end) return false;
  if (!p.rng.next_bool(p.schedule.probability)) return false;
  ++p.stats.fires;
  p.burst_remaining = p.schedule.burst_len > 0 ? p.schedule.burst_len - 1 : 0;
  return true;
}

std::uint64_t FaultInjector::mutate_word(PointId point, std::uint64_t value,
                                         unsigned bits) {
  Point& p = points_[point];
  const std::uint64_t width_mask =
      bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  std::uint64_t mask = 0;
  while (mask == 0) mask = p.rng.next_u64() & width_mask;
  return value ^ mask;
}

void FaultInjector::mutate_bytes(PointId point, std::span<std::uint8_t> bytes) {
  if (bytes.empty()) return;
  Point& p = points_[point];
  const unsigned flips = 1 + static_cast<unsigned>(p.rng.next_below(8));
  for (unsigned i = 0; i < flips; ++i) {
    const std::size_t byte = p.rng.next_below(bytes.size());
    const unsigned bit = static_cast<unsigned>(p.rng.next_below(8));
    bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
  }
}

std::uint64_t FaultInjector::rand_below(PointId point, std::uint64_t bound) {
  return points_[point].rng.next_below(bound);
}

std::uint64_t FaultInjector::total_fires() const {
  std::uint64_t total = 0;
  for (const Point& point : points_) total += point.stats.fires;
  return total;
}

namespace {

/// One entry per injection hook in the tree; the docs table in
/// docs/ROBUSTNESS.md mirrors this list.
constexpr std::string_view kCatalog[] = {
    "axi.ar.stall",       // slave refuses the read address handshake
    "axi.aw.stall",       // slave refuses the write burst handshake
    "axi.r.stall",        // a ready read beat is withheld this cycle
    "axi.r.corrupt",      // read beat data XORed with a random mask
    "axi.r.slverr",       // read beat answered with SLVERR
    "axi.b.slverr",       // write response SLVERR, burst not committed
    "flash.rot.replica",  // one TMR flash copy's read data rotted
    "flash.rot.voted",    // post-vote flash data rotted (beats TMR)
    "spw.frame.corrupt",  // SpaceWire frame bits flipped (CRC detects)
    "spw.frame.drop",     // SpaceWire frame lost on the wire
    "hv.job.overrun",     // released job demands 8x its declared WCET
    "hv.partition.crash", // completing job raises a partition error
    "efpga.prog.header.corrupt",  // header word mangled while being written
    "efpga.prog.frame.corrupt",   // in-flight frame word flipped during write
    "efpga.prog.frame.drop",      // frame write lost before reaching the array
    "efpga.config.rot",   // static config-memory upset after programming
    "df.node.transient",  // dataflow node firing fails with kInternal
    "df.node.overrun",    // dataflow node firing blows its deadline
    "df.node.permanent",  // dataflow node firing fails permanently
    "svc.cache.entry.rot",   // compile-cache artifact image rotted in storage
    "svc.cache.evict.storm", // compile-cache spuriously sheds half its entries
};

}  // namespace

std::span<const std::string_view> default_point_catalog() {
  return kCatalog;
}

FaultPlan make_random_plan(std::uint64_t seed,
                           std::span<const std::string_view> points) {
  if (points.empty()) points = default_point_catalog();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string_view point : points) {
    if (!rng.next_bool(0.45)) continue;
    FaultSchedule schedule;
    // Log-uniform-ish probability in [1e-3, 0.5]: chaos needs both drizzle
    // and storms.
    const double exponent = 0.3 + 2.7 * rng.next_double();
    schedule.probability = std::min(0.5, 1.0 / std::pow(10.0, exponent));
    // Half the windows open immediately: points with only a handful of
    // opportunities (one per boot flash read, say) still see faults.
    schedule.window_begin = rng.next_bool(0.5) ? 0 : rng.next_below(64);
    schedule.window_end =
        schedule.window_begin + 1 + rng.next_below(4096);
    schedule.burst_len = 1 + static_cast<unsigned>(rng.next_below(12));
    schedule.max_fires = 1 + rng.next_below(48);
    plan.points.push_back({std::string(point), schedule});
  }
  // Never return an empty plan: chaos with zero armed points is a control
  // run, which the soak covers separately.
  if (plan.points.empty()) {
    FaultSchedule schedule;
    schedule.probability = 0.02;
    schedule.max_fires = 4;
    plan.points.push_back(
        {std::string(points[rng.next_below(points.size())]), schedule});
  }
  return plan;
}

}  // namespace hermes::fault
