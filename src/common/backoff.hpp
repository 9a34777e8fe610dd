// The one bounded-exponential-backoff ladder of the repo.
//
// Every retry path idles `base << attempt` cycles before re-attempting: the
// AXI master between SLVERR retries, the eFPGA programming path between frame
// re-writes, and the dataflow engine between node re-executions. The ladders
// were historically reimplemented at each site; this helper is the single
// definition, with the shift saturated so a runaway attempt counter degrades
// to "wait forever minus one" instead of shifting into undefined behavior.
#pragma once

#include <cstdint>

namespace hermes {

/// Idle cycles before retry `attempt` (0-based): base << attempt, saturating
/// at the 64-bit limit instead of overflowing. base == 0 disables the wait.
constexpr std::uint64_t backoff_cycles(std::uint64_t base, unsigned attempt) {
  if (base == 0) return 0;
  if (attempt >= 64) return ~0ULL;
  const std::uint64_t idle = base << attempt;
  return (idle >> attempt) == base ? idle : ~0ULL;
}

}  // namespace hermes
