#include "noc/workload.hpp"

#include <algorithm>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "fdir/event.hpp"

namespace hermes::noc {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<BeatRequest> generate_workload(const WorkloadSpec& spec) {
  std::vector<BeatRequest> beats;
  std::uint64_t payload_state =
      spec.seed ^ (0xA5A5A5A5A5A5A5A5ULL + spec.endpoint);
  std::uint64_t cycle = spec.start_cycle;
  Rng jitter(spec.seed ^ 0x1234ABCDULL);

  const auto emit_burst = [&](std::uint32_t beats_in_burst,
                              std::uint64_t gap_after) {
    for (std::uint32_t b = 0; b < beats_in_burst; ++b) {
      BeatRequest request;
      request.release_cycle = cycle++;
      request.endpoint = spec.endpoint;
      request.payload = splitmix(payload_state);
      beats.push_back(request);
    }
    cycle += gap_after;
  };

  switch (spec.pattern) {
    case TrafficPattern::kCameraFrames:
      for (std::uint32_t frame = 0; frame < spec.items; ++frame) {
        emit_burst(64, 32);
      }
      break;
    case TrafficPattern::kCodecBlocks:
      for (std::uint32_t block = 0; block < spec.items; ++block) {
        emit_burst(16, 8);
      }
      break;
    case TrafficPattern::kPacketStream:
      for (std::uint32_t packet = 0; packet < spec.items; ++packet) {
        const auto len = static_cast<std::uint32_t>(1 + jitter.next_below(8));
        emit_burst(len, jitter.next_below(16));
      }
      break;
  }
  return beats;
}

std::vector<PortTraffic> workloads_from_taskgraph(const df::TaskGraph& graph,
                                                  std::uint64_t tokens,
                                                  std::uint64_t seed,
                                                  std::uint32_t num_ports,
                                                  std::uint32_t num_endpoints) {
  std::vector<PortTraffic> traffic(num_ports);
  for (std::uint32_t p = 0; p < num_ports; ++p) traffic[p].port = p;
  if (num_ports == 0 || num_endpoints == 0) return traffic;

  for (std::size_t i = 0; i < graph.sources.size(); ++i) {
    const df::Task& task = graph.tasks[graph.sources[i]];
    const std::uint32_t port = static_cast<std::uint32_t>(i) % num_ports;
    const std::uint32_t endpoint =
        static_cast<std::uint32_t>(graph.sources[i]) % num_endpoints;
    std::uint64_t payload_state = seed ^ fnv::mix_word(0xD1F0ULL, i);
    std::uint64_t cycle = 0;
    for (std::uint64_t t = 0; t < tokens; ++t) {
      BeatRequest request;
      request.release_cycle = cycle;
      request.endpoint = endpoint;
      request.payload = splitmix(payload_state);
      traffic[port].beats.push_back(request);
      cycle += task.initiation();
    }
  }
  for (PortTraffic& port : traffic) {
    std::stable_sort(port.beats.begin(), port.beats.end(),
                     [](const BeatRequest& a, const BeatRequest& b) {
                       return a.release_cycle < b.release_cycle;
                     });
  }
  return traffic;
}

ContentionScenario make_contention_scenario(std::uint64_t seed) {
  ContentionScenario scenario;
  scenario.fabric.beat_timeout_cycles = 96;
  scenario.fabric.max_retries = 3;
  scenario.fabric.retry_backoff_cycles = 4;
  scenario.fabric.starvation_watchdog_cycles = 64;
  scenario.fabric.progress_watchdog_cycles = 128;
  scenario.fabric.run_deadline_cycles = 400'000;

  // Two priority classes; within class 0 the camera port outweighs the codec
  // port 3:1, within class 1 the two packet ports share evenly.
  scenario.ports = {
      {"hv0.camera", 0, 3, 8, 0},
      {"hv0.codec", 0, 1, 8, 0},
      {"hv1.packets-a", 1, 2, 8, 1},
      {"hv1.packets-b", 1, 2, 8, 1},
  };
  // Six endpoints over three containment domains (two accelerators each).
  scenario.endpoints = {
      {"efpga.scale", 0, 3, 4, 4}, {"efpga.filter", 0, 4, 4, 4},
      {"efpga.dct", 1, 2, 4, 4},   {"efpga.quant", 1, 5, 4, 4},
      {"efpga.csum", 2, 1, 4, 4},  {"efpga.frag", 2, 2, 4, 4},
  };

  const auto stream = [&](std::uint32_t port, TrafficPattern pattern,
                          std::uint32_t endpoint, std::uint32_t items,
                          std::uint64_t salt) {
    WorkloadSpec spec;
    spec.pattern = pattern;
    spec.endpoint = endpoint;
    spec.items = items;
    spec.seed = seed ^ salt;
    std::vector<BeatRequest> beats = generate_workload(spec);
    PortTraffic* slot = nullptr;
    for (PortTraffic& t : scenario.traffic) {
      if (t.port == port) slot = &t;
    }
    if (!slot) {
      scenario.traffic.push_back({port, {}});
      slot = &scenario.traffic.back();
    }
    slot->beats.insert(slot->beats.end(), beats.begin(), beats.end());
  };
  // Camera saturates domain 0, codec pounds domain 1, the packet ports spray
  // the remaining endpoints — every domain sees traffic from ≥2 ports.
  stream(0, TrafficPattern::kCameraFrames, 0, 3, 0x11);
  stream(0, TrafficPattern::kPacketStream, 2, 6, 0x12);
  stream(1, TrafficPattern::kCodecBlocks, 2, 6, 0x21);
  stream(1, TrafficPattern::kCodecBlocks, 3, 4, 0x22);
  stream(2, TrafficPattern::kPacketStream, 1, 10, 0x31);
  stream(2, TrafficPattern::kPacketStream, 4, 10, 0x32);
  stream(3, TrafficPattern::kPacketStream, 5, 10, 0x41);
  stream(3, TrafficPattern::kPacketStream, 0, 6, 0x42);
  for (PortTraffic& port : scenario.traffic) {
    std::stable_sort(port.beats.begin(), port.beats.end(),
                     [](const BeatRequest& a, const BeatRequest& b) {
                       return a.release_cycle < b.release_cycle;
                     });
  }
  return scenario;
}

std::uint64_t run_noc_chaos_once(std::uint64_t seed,
                                 std::span<const std::string_view> points,
                                 std::uint64_t* silent_out) {
  ContentionScenario scenario = make_contention_scenario(seed);
  Crossbar fabric(scenario.fabric, scenario.ports, scenario.endpoints);

  fault::FaultInjector injector(fault::make_random_plan(
      seed, points.empty() ? noc_point_catalog() : points));
  fabric.attach_injector(&injector);
  fdir::FdirBus bus;
  fabric.attach_fdir(&bus);

  for (PortTraffic& traffic : scenario.traffic) {
    fabric.bind_workload(traffic.port, std::move(traffic.beats));
  }
  const FabricResult result = fabric.run();
  if (silent_out) *silent_out = result.silent;

  std::uint64_t fingerprint = result.fingerprint();
  fingerprint = fnv::mix_word(fingerprint, injector.total_fires());
  std::vector<fdir::FdirEvent> events = bus.drain();
  fingerprint = fnv::mix_word(fingerprint, events.size());
  for (const fdir::FdirEvent& event : events) {
    fingerprint = fnv::mix_word(fingerprint, static_cast<std::uint64_t>(event.layer));
    fingerprint = fnv::mix_word(fingerprint,
                          static_cast<std::uint64_t>(event.severity));
    fingerprint = fnv::mix_word(fingerprint, static_cast<std::uint64_t>(event.code));
    fingerprint = fnv::mix_word(fingerprint, event.detail);
  }
  return fingerprint;
}

std::vector<std::uint64_t> run_noc_campaign(std::uint64_t first_seed,
                                            std::size_t count,
                                            ThreadPool* pool) {
  std::vector<std::uint64_t> fingerprints(count);
  const auto body = [&](std::size_t i) {
    fingerprints[i] = run_noc_chaos_once(first_seed + i, {});
  };
  if (pool) {
    pool->parallel_for(count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
  return fingerprints;
}

}  // namespace hermes::noc
