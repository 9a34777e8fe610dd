#include "axi/protocol.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/strings.hpp"

namespace hermes::axi {

std::uint64_t beat_address(const AddrBeat& ab, unsigned beat) {
  const std::uint64_t bytes = 1ULL << ab.size_log2;
  switch (ab.burst) {
    case Burst::kFixed:
      return ab.addr;
    case Burst::kIncr:
      return (ab.addr & ~(bytes - 1)) + static_cast<std::uint64_t>(beat) * bytes;
    case Burst::kWrap: {
      const std::uint64_t container = bytes * (ab.len + 1);
      const std::uint64_t base = ab.addr & ~(container - 1);
      const std::uint64_t offset =
          ((ab.addr & ~(bytes - 1)) - base + static_cast<std::uint64_t>(beat) * bytes) %
          container;
      return base + offset;
    }
  }
  return ab.addr;
}

Status validate_burst(const AddrBeat& ab) {
  const unsigned beats = ab.len + 1;
  if (ab.size_log2 > 3) {
    return Status::Error(ErrorCode::kInvalidArgument,
                         "AxSIZE above 8 bytes not supported by this bus");
  }
  switch (ab.burst) {
    case Burst::kFixed:
      if (beats > 16) {
        return Status::Error(ErrorCode::kInvalidArgument,
                             "FIXED bursts are limited to 16 beats");
      }
      break;
    case Burst::kIncr: {
      if (beats > kMaxBurstLen) {
        return Status::Error(ErrorCode::kInvalidArgument,
                             "INCR bursts are limited to 256 beats");
      }
      const std::uint64_t bytes = 1ULL << ab.size_log2;
      const std::uint64_t first = ab.addr & ~(bytes - 1);
      const std::uint64_t last = first + (beats - 1ULL) * bytes;
      if (first / k4KBoundary != last / k4KBoundary) {
        return Status::Error(
            ErrorCode::kInvalidArgument,
            format("INCR burst crosses a 4KB boundary (0x%llx + %u beats)",
                   static_cast<unsigned long long>(ab.addr), beats));
      }
      break;
    }
    case Burst::kWrap:
      if (beats != 2 && beats != 4 && beats != 8 && beats != 16) {
        return Status::Error(ErrorCode::kInvalidArgument,
                             "WRAP bursts must be 2/4/8/16 beats");
      }
      if (ab.addr & ((1ULL << ab.size_log2) - 1)) {
        return Status::Error(ErrorCode::kInvalidArgument,
                             "WRAP bursts must be aligned to the beat size");
      }
      break;
  }
  return Status::Ok();
}

std::vector<AddrBeat> split_transfer(std::uint64_t addr, std::uint64_t bytes,
                                     unsigned size_log2, unsigned max_len) {
  std::vector<AddrBeat> bursts;
  if (bytes == 0) return bursts;
  const std::uint64_t beat_bytes = 1ULL << size_log2;
  // Work in aligned beat space: cover [addr, addr+bytes) with whole beats.
  std::uint64_t first_beat = addr / beat_bytes;
  const std::uint64_t last_beat = (addr + bytes - 1) / beat_bytes;

  while (first_beat <= last_beat) {
    const std::uint64_t start_addr = first_beat * beat_bytes;
    // Beats available before the next 4KB boundary.
    const std::uint64_t boundary =
        (start_addr / k4KBoundary + 1) * k4KBoundary;
    const std::uint64_t beats_to_boundary = (boundary - start_addr) / beat_bytes;
    std::uint64_t beats = std::min<std::uint64_t>(
        {last_beat - first_beat + 1, beats_to_boundary, max_len});
    AddrBeat ab;
    ab.addr = start_addr;
    ab.len = static_cast<unsigned>(beats - 1);
    ab.size_log2 = size_log2;
    ab.burst = Burst::kIncr;
    bursts.push_back(ab);
    first_beat += beats;
  }
  return bursts;
}

}  // namespace hermes::axi
