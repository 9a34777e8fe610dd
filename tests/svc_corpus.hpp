// Shared compile-service request corpus.
//
// One deterministic generator feeds the differential cache-oracle suite, the
// service scheduling tests, the soak families and the perf gate, so every
// consumer exercises the same mix: source-level jobs drawn from the five app
// kernel families with varied geometry/constraints, and netlist-level jobs
// drawn from the engine fuzz generator (tests/netlist_fuzz.hpp). Requests are
// pure functions of (index, seed): two corpora built with the same arguments
// are identical, which is what the warm-vs-cold and serial-vs-pooled oracles
// rely on.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "common/rng.hpp"
#include "netlist_fuzz.hpp"
#include "svc/job.hpp"

namespace hermes::svc::corpus {

/// Deterministic kernel for `index`: cycles the app families with varied
/// geometry so neighbouring indices produce distinct schedule keys.
inline apps::KernelSpec kernel_for(int index) {
  switch (index % 5) {
    case 0: return apps::sobel_kernel(4 + 2 * (index % 3), 4);
    case 1: return apps::fir_kernel(3 + index % 4, 16 + 8 * (index % 3));
    case 2: return apps::dense_relu_kernel(3 + index % 3, 3 + index % 4);
    case 3: return apps::matmul_kernel(2 + index % 3);
    default: return apps::histogram_kernel(32 + 16 * (index % 3));
  }
}

/// Source-level request `index`. The clock constraint varies per index, so
/// every index is a distinct compile (a cold drain of a corpus really is
/// cold); indices only repeat stage keys when the corpus itself repeats.
inline CompileRequest source_request(int index,
                                     std::string tenant = "default") {
  apps::KernelSpec spec = kernel_for(index);
  CompileRequest request;
  request.tenant = std::move(tenant);
  request.source = std::move(spec.source);
  request.flow.top = std::move(spec.name);
  request.flow.constraints.clock_period_ns = 8.0 + 0.01 * index;
  request.flow.constraints.multipliers = 1 + index % 2;
  request.backend.place.seed = 1 + static_cast<unsigned>(index % 4);
  return request;
}

/// Netlist-level request: a random fuzz design entering the flow at the map
/// stage. `rng` must be corpus-owned so indices stay reproducible.
inline CompileRequest netlist_request(Rng& rng, int index,
                                      std::string tenant = "default") {
  hw::fuzz::RandomDesign design =
      hw::fuzz::make_random_design(rng, index, "svcjob");
  CompileRequest request;
  request.tenant = std::move(tenant);
  request.module = std::make_shared<hw::Module>(std::move(design.module));
  request.characterize = false;  // no source stage; sweep adds nothing
  request.backend.place.seed = 1 + static_cast<unsigned>(index % 4);
  return request;
}

/// `count` mixed requests (2/3 source-level, 1/3 netlist-level), tenants
/// assigned round-robin from `tenants`. Deterministic in (count, seed).
inline std::vector<CompileRequest> mixed_corpus(
    int count, std::uint64_t seed,
    const std::vector<std::string>& tenants = {"default"}) {
  Rng rng(seed);
  std::vector<CompileRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string& tenant =
        tenants[static_cast<std::size_t>(i) % tenants.size()];
    if (i % 3 == 2) {
      requests.push_back(netlist_request(rng, i, tenant));
    } else {
      requests.push_back(source_request(i, tenant));
    }
  }
  return requests;
}

}  // namespace hermes::svc::corpus
