// SHA-256 used by BL1 to authenticate load-list entries (strong integrity,
// complementing the fast CRC-32 check on the transport framing).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace hermes {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4).
///
/// Whole 64-byte blocks go to one of two compressors, picked once per process
/// by CPUID: the x86-64 SHA extensions (`sha256rnds2`/`sha256msg1`/
/// `sha256msg2`) where the CPU has them, else the portable FIPS 180-4 round
/// loop. Both produce the same digest. The portable loop is also the oracle
/// the extension path is tested and timed against (`Sha256::portable`).
class Sha256 {
 public:
  /// A hasher on the fastest compressor this CPU has.
  Sha256();
  /// A hasher pinned to the portable compressor whatever the CPU: the
  /// reference for differential tests and the perf gate.
  [[nodiscard]] static Sha256 portable();
  /// True when this hasher compresses with the SHA extensions.
  [[nodiscard]] bool accelerated() const;

  void update(std::span<const std::uint8_t> data);
  void update(const void* data, std::size_t size);
  /// Finalizes and returns the digest. The object must not be reused after.
  [[nodiscard]] Sha256Digest digest();

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into `state`.
  using Compressor = void (*)(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* data, std::size_t blocks);

  explicit Sha256(Compressor compress);

  Compressor compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_;
  std::size_t buffered_;
};

/// One-shot SHA-256.
Sha256Digest sha256(std::span<const std::uint8_t> data);

/// Lowercase hex rendering of a digest.
std::string to_hex(const Sha256Digest& digest);

}  // namespace hermes
