// Little-endian byte codec for the boot-path wire formats (BL1 header, load
// list, boot report, eFPGA bitstream), the compile service's integrity
// images, fnv::mix_le64 and fnv::mix_words. Encoders append through Writer
// and decoders consume through Reader, so no format keeps its own shift loops
// or field offsets. No format in scope is big-endian.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hermes::bytes {

/// The low `N` bytes of `value`, least significant first.
template <std::size_t N>
constexpr std::array<std::uint8_t, N> le(std::uint64_t value) {
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return out;
}

/// Appends little-endian fields to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t value) { out_.push_back(value); }
  void u32(std::uint32_t value) { raw(le<4>(value)); }
  void u64(std::uint64_t value) { raw(le<8>(value)); }
  /// Any contiguous range of byte-sized values, verbatim.
  template <typename Bytes>
  void raw(const Bytes& data) {
    out_.insert(out_.end(), std::begin(data), std::end(data));
  }
  /// A `width`-byte text field: at most `width - 1` bytes of `text`, then
  /// zeros, so the field always holds a terminator.
  void padded(std::string_view text, std::size_t width) {
    raw(text.substr(0, width - 1));
    out_.resize(out_.size() + width - std::min(text.size(), width - 1), 0);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Consumes little-endian fields from a byte span. It never reads past the
/// end: an over-read marks the reader failed and yields zero (or an empty
/// span), and so does every read after it.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return {};
    }
    offset_ += n;
    return data_.subspan(offset_ - n, n);
  }
  /// A Writer::padded field; nullopt on an over-read or when a byte after
  /// the terminator is non-zero (the field would not re-encode to itself).
  std::optional<std::string> padded(std::size_t width) {
    const std::span<const std::uint8_t> field = raw(width);
    if (field.empty()) return std::nullopt;
    const auto end = std::find(field.begin(), field.end() - 1, 0);
    if (std::any_of(end, field.end(), [](std::uint8_t b) { return b != 0; })) {
      return std::nullopt;
    }
    return std::string(field.begin(), end);
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t consumed() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - offset_; }

 private:
  std::uint64_t le(std::size_t n) {
    std::uint64_t value = 0;
    const std::span<const std::uint8_t> field = raw(n);
    // Fully unrolled, a u64 read compiles to one load even at -O2, which
    // fnv::mix_words relies on.
#pragma GCC unroll 8
    for (std::size_t i = 0; i < field.size(); ++i) {
      value |= static_cast<std::uint64_t>(field[i]) << (8 * i);
    }
    return value;
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool failed_ = false;
};

}  // namespace hermes::bytes
