#include "common/crc.hpp"

#include <array>

namespace hermes {
namespace {

using Crc32Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables (Kounavis & Berry, ISCC 2005). Table 0 is the
/// classic byte table; table k maps a byte to its CRC contribution when k
/// more zero bytes follow it, so eight bytes fold with eight lookups at once.
constexpr std::array<Crc32Table, 8> make_crc32_tables() {
  std::array<Crc32Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Crc32Table, 8> kCrc32Tables = make_crc32_tables();

/// Four bytes as a little-endian word (one load on little-endian hosts).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Crc32::Crc32() : state_(0xFFFFFFFFu) {}

void Crc32::update(std::span<const std::uint8_t> data) {
  const auto& t = kCrc32Tables;
  std::uint32_t crc = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  state_ = crc;
}

void Crc32::update(const void* data, std::size_t size) {
  update(std::span(static_cast<const std::uint8_t*>(data), size));
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32(std::span(static_cast<const std::uint8_t*>(data), size));
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000u) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021u)
                            : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

}  // namespace hermes
