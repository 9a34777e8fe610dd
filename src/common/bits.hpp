// Bit-manipulation helpers shared by the IR evaluator, the netlist
// simulator, and the EDAC codecs. All datapath values are carried as
// std::uint64_t truncated to an explicit bit width.
#pragma once

#include <cassert>
#include <cstdint>

namespace hermes {

/// Mask with the low `width` bits set; width must be in [0, 64].
constexpr std::uint64_t bit_mask(unsigned width) {
  assert(width <= 64);
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

/// Truncates `value` to `width` bits.
constexpr std::uint64_t truncate(std::uint64_t value, unsigned width) {
  return value & bit_mask(width);
}

/// Sign-extends the low `width` bits of `value` to a signed 64-bit integer.
constexpr std::int64_t sign_extend(std::uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  if (width == 64) return static_cast<std::int64_t>(value);
  const std::uint64_t sign_bit = 1ULL << (width - 1);
  const std::uint64_t truncated = truncate(value, width);
  return static_cast<std::int64_t>((truncated ^ sign_bit) - sign_bit);
}

// Integer operators whose C++ form can trap or is undefined, written once
// with the total semantics the datapath hardware has. The IR interpreter,
// the constant folder and the netlist evaluator all compute through these;
// the JIT emitter implements the same rules in native code.

/// Unsigned division; x / 0 is all-ones.
constexpr std::uint64_t div_u(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? ~0ULL : a / b;
}

/// Unsigned remainder; x % 0 is x.
constexpr std::uint64_t rem_u(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? a : a % b;
}

/// Signed division of sign-extended operands; x / 0 is all-ones and
/// INT64_MIN / -1 wraps to INT64_MIN (the negation is done unsigned, so it
/// neither overflows nor traps).
constexpr std::uint64_t div_s(std::int64_t a, std::int64_t b) {
  if (b == 0) return ~0ULL;
  if (b == -1) return 0u - static_cast<std::uint64_t>(a);
  return static_cast<std::uint64_t>(a / b);
}

/// Signed remainder of sign-extended operands; x % 0 is x and x % -1 is 0
/// (INT64_MIN % -1 is undefined in C++ although its value is 0).
constexpr std::uint64_t rem_s(std::int64_t a, std::int64_t b) {
  if (b == 0) return static_cast<std::uint64_t>(a);
  if (b == -1) return 0;
  return static_cast<std::uint64_t>(a % b);
}

/// Left shift; an amount of 64 or more shifts every bit out.
constexpr std::uint64_t shl(std::uint64_t a, std::uint64_t amount) {
  return amount >= 64 ? 0 : a << amount;
}

/// Logical right shift; an amount of 64 or more shifts every bit out.
constexpr std::uint64_t shr_u(std::uint64_t a, std::uint64_t amount) {
  return amount >= 64 ? 0 : a >> amount;
}

/// Arithmetic right shift of a sign-extended value; the amount clamps at 63,
/// where the sign fills the word.
constexpr std::uint64_t shr_s(std::int64_t a, std::uint64_t amount) {
  return static_cast<std::uint64_t>(a >> (amount >= 63 ? 63 : amount));
}

/// Extracts bit `index` of `value`.
constexpr bool get_bit(std::uint64_t value, unsigned index) {
  assert(index < 64);
  return (value >> index) & 1u;
}

/// Number of bits needed to represent `value` (at least 1).
constexpr unsigned bit_width_of(std::uint64_t value) {
  unsigned width = 1;
  while (value > 1) {
    value >>= 1;
    ++width;
  }
  return width;
}

/// ceil(a / b) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  assert(b != 0);
  return (a + b - 1) / b;
}

/// Parity (XOR reduction) of a word.
constexpr bool parity(std::uint64_t value) {
  value ^= value >> 32;
  value ^= value >> 16;
  value ^= value >> 8;
  value ^= value >> 4;
  value ^= value >> 2;
  value ^= value >> 1;
  return value & 1u;
}

}  // namespace hermes
