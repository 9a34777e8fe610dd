// CRC-32 (IEEE 802.3, reflected) and CRC-16-CCITT used for image integrity in
// the boot loader and for bitstream framing in the NXmap backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hermes {

/// Incremental CRC-32 (polynomial 0xEDB88320, init 0xFFFFFFFF, final xor).
/// `update` folds eight bytes per step with slicing-by-8 tables built at
/// compile time; only a tail under eight bytes takes the byte loop. Any
/// split of the input across `update` calls gives the one-shot value.
class Crc32 {
 public:
  Crc32();
  void update(std::span<const std::uint8_t> data);
  void update(const void* data, std::size_t size);
  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_;
};

/// One-shot CRC-32 of a byte range.
std::uint32_t crc32(std::span<const std::uint8_t> data);
std::uint32_t crc32(const void* data, std::size_t size);

/// One-shot CRC-16-CCITT (poly 0x1021, init 0xFFFF), used by the SpaceWire
/// load protocol packet framing.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

}  // namespace hermes
