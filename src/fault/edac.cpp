#include "fault/edac.hpp"

#include <array>

#include "common/bits.hpp"

namespace hermes::fault {
namespace {

// Classic extended-Hamming layout: codeword positions are numbered 1..38;
// positions that are powers of two (1,2,4,8,16,32) hold parity bits, the rest
// hold data bits in order. Position 0 of the stored word holds the overall
// parity bit.
//
// The code is linear over GF(2): the codeword of a data word is the XOR of the
// codewords of its bytes, and the data bits, syndrome and overall parity read
// out of a codeword are the XOR of those of its bytes. The codec therefore
// runs on byte-indexed tables built once from the position masks: encode is
// 4 lookups, decode 5 lookups plus the status ladder (the scrub passes and the
// eFPGA programming path run every configuration word through it).

constexpr bool is_power_of_two(unsigned x) { return x != 0 && (x & (x - 1)) == 0; }
constexpr unsigned kPositions = 38;

struct Tables {
  std::array<unsigned, kEdacDataBits> data_position{};
  std::array<std::uint64_t, 6> parity_mask{};  // coverage of parity bits 1,2,4,8,16,32
  std::uint64_t all_positions = 0;             // positions 1..38
};

constexpr Tables make_tables() {
  Tables t{};
  unsigned index = 0;
  for (unsigned pos = 1; pos <= kPositions; ++pos) {
    t.all_positions |= 1ULL << pos;
    if (!is_power_of_two(pos)) {
      t.data_position[index++] = pos;
    }
  }
  for (unsigned p = 0; p < 6; ++p) {
    const unsigned bit = 1u << p;
    for (unsigned pos = 1; pos <= kPositions; ++pos) {
      if (pos & bit) t.parity_mask[p] |= 1ULL << pos;
    }
  }
  return t;
}

// A decode-table entry packs what one codeword byte contributes: the data
// bits it holds (bits 0..31), its syndrome share (bits 32..37) and its
// overall parity share (bit 38).
constexpr unsigned kSyndromeShift = 32;
constexpr unsigned kOverallShift = 38;
constexpr unsigned kDecodeBytes = (kEdacCodewordBits + 7) / 8;  // bits 0..39

struct Codec {
  std::array<std::array<std::uint64_t, 256>, 4> encode{};
  std::array<std::array<std::uint64_t, 256>, kDecodeBytes> decode{};
  /// Data bit a syndrome points at (0 for parity positions and syndromes
  /// beyond the codeword: correcting those leaves the data as read).
  std::array<std::uint32_t, 64> data_bit_at{};
};

constexpr Codec make_codec() {
  constexpr Tables t = make_tables();
  // Codeword of each single data bit, and decode contribution of each single
  // codeword bit; every table entry is the XOR of the bits of its byte.
  std::array<std::uint64_t, kEdacDataBits> data_column{};
  for (unsigned i = 0; i < kEdacDataBits; ++i) {
    std::uint64_t word = 1ULL << t.data_position[i];
    for (unsigned p = 0; p < 6; ++p) {
      if (parity(word & t.parity_mask[p])) word |= 1ULL << (1u << p);
    }
    if (parity(word & t.all_positions)) word |= 1ULL;
    data_column[i] = word;
  }
  std::array<std::uint64_t, 8 * kDecodeBytes> code_column{};
  for (unsigned bit = 0; bit < code_column.size(); ++bit) {
    const std::uint64_t word = 1ULL << bit;
    std::uint64_t entry = 0;
    for (unsigned i = 0; i < kEdacDataBits; ++i) {
      if (t.data_position[i] == bit) entry |= 1ULL << i;
    }
    for (unsigned p = 0; p < 6; ++p) {
      if (parity(word & t.parity_mask[p])) entry |= 1ULL << (kSyndromeShift + p);
    }
    if (parity(word & (t.all_positions | 1ULL))) entry |= 1ULL << kOverallShift;
    code_column[bit] = entry;
  }

  Codec c{};
  for (unsigned v = 0; v < 256; ++v) {
    for (unsigned b = 0; b < 8; ++b) {
      if (((v >> b) & 1u) == 0) continue;
      for (unsigned k = 0; k < c.encode.size(); ++k) {
        c.encode[k][v] ^= data_column[8 * k + b];
      }
      for (unsigned k = 0; k < c.decode.size(); ++k) {
        c.decode[k][v] ^= code_column[8 * k + b];
      }
    }
  }
  for (unsigned i = 0; i < kEdacDataBits; ++i) {
    c.data_bit_at[t.data_position[i]] = 1u << i;
  }
  return c;
}

constexpr Codec kCodec = make_codec();

}  // namespace

std::uint64_t edac_encode(std::uint32_t data) {
  return kCodec.encode[0][data & 0xFF] ^ kCodec.encode[1][(data >> 8) & 0xFF] ^
         kCodec.encode[2][(data >> 16) & 0xFF] ^ kCodec.encode[3][data >> 24];
}

EdacStatus edac_decode(std::uint64_t codeword, std::uint32_t& data_out) {
  std::uint64_t acc = 0;
  for (unsigned k = 0; k < kDecodeBytes; ++k) {
    acc ^= kCodec.decode[k][(codeword >> (8 * k)) & 0xFF];
  }
  auto data = static_cast<std::uint32_t>(acc);
  const auto syndrome = static_cast<unsigned>(acc >> kSyndromeShift) & 0x3F;
  const bool overall = (acc >> kOverallShift) & 1u;

  EdacStatus status = EdacStatus::kClean;
  if (syndrome != 0 && overall) {
    data ^= kCodec.data_bit_at[syndrome];  // correct the single-bit error
    status = EdacStatus::kCorrected;
  } else if (syndrome != 0 && !overall) {
    return EdacStatus::kDoubleError;
  } else if (syndrome == 0 && overall) {
    status = EdacStatus::kCorrected;  // the overall parity bit itself flipped
  }
  data_out = data;
  return status;
}

}  // namespace hermes::fault
