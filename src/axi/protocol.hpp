// AXI4 protocol model (AMBA AXI, ARM IHI 0022).
//
// "The integrated ARM processor on the NG-ULTRA board uses the AXI4 protocol
// interfaces to communicate with the rest of the system; therefore, support
// for AXI4 interfaces has been added to Bambu" (HERMES, Sec. II). This module
// models the five AXI4 channels at transaction/beat granularity: enough to
// generate master adapters for HLS accelerators, simulate the slave
// counterpart with configurable memory delays, and check protocol rules
// (burst length, 4KB boundary, alignment, WLAST placement).
#pragma once

#include <cstdint>
#include <vector>

#include "common/enum_names.hpp"
#include "common/status.hpp"

namespace hermes::axi {

#define HERMES_AXI_BURSTS(X)                                                  \
  X(kFixed, "FIXED") X(kIncr, "INCR") X(kWrap, "WRAP")
HERMES_ENUM(Burst, std::uint8_t, HERMES_AXI_BURSTS)

#define HERMES_AXI_RESPS(X)                                                   \
  X(kOkay, "OKAY") X(kExOkay, "EXOKAY") X(kSlvErr, "SLVERR")                  \
  X(kDecErr, "DECERR")
HERMES_ENUM(Resp, std::uint8_t, HERMES_AXI_RESPS)

inline constexpr unsigned kMaxBurstLen = 256;   ///< AXI4 INCR bursts
inline constexpr std::uint64_t k4KBoundary = 4096;

/// Read/write address channel payload (AR / AW).
struct AddrBeat {
  std::uint64_t addr = 0;
  unsigned len = 0;        ///< beats - 1 (AxLEN)
  unsigned size_log2 = 2;  ///< bytes per beat = 1 << size_log2 (AxSIZE)
  Burst burst = Burst::kIncr;
  unsigned id = 0;
};

/// Write data channel payload (W).
struct WriteBeat {
  std::uint64_t data = 0;
  std::uint8_t strb = 0xF;  ///< byte strobes for the active lanes
  bool last = false;
};

/// Read data channel payload (R).
struct ReadBeat {
  std::uint64_t data = 0;
  Resp resp = Resp::kOkay;
  bool last = false;
  unsigned id = 0;
};

/// Address of beat `n` of a burst (AXI4 address-calculation rules; WRAP
/// bursts wrap at the container boundary).
std::uint64_t beat_address(const AddrBeat& ab, unsigned beat);

/// Validates a burst against AXI4 rules: legal length for the burst type,
/// no 4KB boundary crossing for INCR, power-of-two length for WRAP.
Status validate_burst(const AddrBeat& ab);

/// Splits an arbitrary (possibly unaligned) byte range into legal INCR
/// bursts of `size_log2`-byte beats, none crossing a 4KB boundary. The first
/// and last beats may be partial (narrow strobes) — this implements the
/// "fully functional ... supports unaligned memory accesses" behaviour of
/// the generated interface code.
std::vector<AddrBeat> split_transfer(std::uint64_t addr, std::uint64_t bytes,
                                     unsigned size_log2,
                                     unsigned max_len = kMaxBurstLen);

}  // namespace hermes::axi
