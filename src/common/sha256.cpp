#include "common/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hermes {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// The FIPS 180-4 compression of one block: the portable fallback and the
/// reference the SHA-extension compressor is tested against.
void process_block(std::array<std::uint32_t, 8>& state,
                   const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) process_block(state, data);
}

#if defined(__x86_64__)

/// The same compression on the SHA extensions (Gulley et al., "Intel SHA
/// Extensions", Intel 2013). The state lives in two registers as ABEF and
/// CDGH; each `sha256rnds2` does two rounds, so one 4-word message group
/// takes two. Groups 4..15 of the message schedule are derived in a
/// rotating window of four registers: W[4j..4j+3] =
/// msg2(msg1(W_{j-4}, W_{j-3}) + (words 4j-7..4j-4), W_{j-1}).
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* data,
    std::size_t blocks) {
  // Big-endian words within each 32-bit lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& group = msg[j % 4];
      if (j < 4) {
        group = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
            byte_swap);
      } else {
        const __m128i& prev = msg[(j + 3) % 4];
        const __m128i w7 = _mm_alignr_epi8(prev, msg[(j + 2) % 4], 4);
        group = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(group, msg[(j + 1) % 4]), w7),
            prev);
      }
      const __m128i wk = _mm_add_epi32(
          group, _mm_load_si128(reinterpret_cast<const __m128i*>(
                     &kRoundConstants[4 * j])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), hgfe);
}

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & bit_SSE4_1) != 0 && (ecx & bit_SSSE3) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return sse41 && (ebx & bit_SHA) != 0;
}

#endif

/// The compressor every default-constructed hasher uses, chosen by CPUID on
/// first use.
decltype(&compress_portable) best_compressor() {
#if defined(__x86_64__)
  static const auto chosen =
      cpu_has_sha_extensions() ? compress_sha_ni : compress_portable;
  return chosen;
#else
  return compress_portable;
#endif
}

}  // namespace

Sha256::Sha256() : Sha256(best_compressor()) {}

Sha256::Sha256(Compressor compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{},
      total_bytes_(0),
      buffered_(0) {}

Sha256 Sha256::portable() { return Sha256(compress_portable); }

bool Sha256::accelerated() const { return compress_ != compress_portable; }

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  // Top up a partial block first, then compress every whole block of the
  // input in one call; only a tail shorter than a block is buffered.
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    data = data.subspan(take);
    if (buffered_ < buffer_.size()) return;
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = data.size() / buffer_.size();
  if (blocks > 0) {
    compress_(state_, data.data(), blocks);
    data = data.subspan(blocks * buffer_.size());
  }
  if (!data.empty()) std::memcpy(buffer_.data(), data.data(), data.size());
  buffered_ = data.size();
}

void Sha256::update(const void* data, std::size_t size) {
  update(std::span(static_cast<const std::uint8_t*>(data), size));
}

Sha256Digest Sha256::digest() {
  // Padding: 0x80, zeros up to 56 mod 64, then the big-endian bit length.
  const std::uint64_t bit_length = total_bytes_ * 8;
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t length_at = (buffered_ < 56 ? 56 : 120) - buffered_;
  for (int i = 0; i < 8; ++i) {
    pad[length_at + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(std::span(pad).first(length_at + 8));

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.digest();
}

std::string to_hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace hermes
