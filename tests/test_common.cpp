// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <chrono>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/bytes.hpp"
#include "common/crc.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "common/xml.hpp"

namespace hermes {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status status = Status::Error(ErrorCode::kParseError, "bad token");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_EQ(status.to_string(), "parse_error: bad token");
}

TEST(Status, DeadlineExceededRenders) {
  const Status status = Status::Error(ErrorCode::kDeadlineExceeded, "stuck");
  EXPECT_EQ(status.to_string(), "deadline_exceeded: stuck");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::Error(ErrorCode::kNotFound, "missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: "123456789" -> 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(crc32(data, 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  crc.update(text.data(), 10);
  crc.update(text.data() + 10, text.size() - 10);
  EXPECT_EQ(crc.value(), crc32(text.data(), text.size()));

  // The slicing-by-8 loop folds eight bytes at a time and the byte loop the
  // tail; three-way splits at every offset move the seams through both.
  Rng rng(31);
  std::vector<std::uint8_t> data(67);
  for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint32_t one_shot = crc32(data);
  for (std::size_t first = 0; first <= data.size(); ++first) {
    for (std::size_t second = first; second <= data.size(); second += 5) {
      Crc32 split;
      split.update(std::span(data).first(first));
      split.update(std::span(data).subspan(first, second - first));
      split.update(std::span(data).subspan(second));
      ASSERT_EQ(split.value(), one_shot) << "split at " << first << ", " << second;
    }
  }
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data), 0x29B1u);
}

TEST(Sha256, KnownVectors) {
  // SHA-256("") and SHA-256("abc") from FIPS 180-4.
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(to_hex(sha256(abc)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MultiBlockMessage) {
  // 200 'a' bytes crosses multiple 64-byte blocks.
  std::vector<std::uint8_t> data(200, 'a');
  Sha256 incremental;
  incremental.update(std::span(data.data(), 77));
  incremental.update(std::span(data.data() + 77, data.size() - 77));
  EXPECT_EQ(incremental.digest(), sha256(data));
}

TEST(Sha256, FipsVectors) {
  // FIPS 180-4 / NIST example messages: one block, two blocks, and the
  // million-'a' message fed in uneven chunks. Each runs on the default
  // hasher and on the portable one, which is the oracle below and so is held
  // to the standard itself even on a CPU where sha256() never takes it.
  EXPECT_FALSE(Sha256::portable().accelerated());
  for (Sha256 (*make)() : {+[] { return Sha256(); }, &Sha256::portable}) {
    const auto hex_of = [make](const std::string& message) {
      Sha256 hasher = make();
      hasher.update(message.data(), message.size());
      return to_hex(hasher.digest());
    };
    EXPECT_EQ(hex_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hex_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
                     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    const std::vector<std::uint8_t> a(1'000'000, 'a');
    Sha256 million = make();
    for (std::size_t at = 0, step = 1; at < a.size(); at += step, step = step * 3 % 997 + 1) {
      million.update(std::span(a).subspan(at, std::min(step, a.size() - at)));
    }
    EXPECT_EQ(to_hex(million.digest()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256, ExtensionsMatchPortableAtEveryLength) {
  if (!Sha256().accelerated()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions (sha_ni)";
  }
  Rng rng(180);
  std::vector<std::uint8_t> data(1100);
  for (std::uint8_t& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t length = 0; length <= data.size(); ++length) {
    const std::span<const std::uint8_t> message = std::span(data).first(length);
    Sha256 portable = Sha256::portable();
    portable.update(message);
    // Up to three random cuts, so block runs start mid-buffer and end in
    // a tail.
    Sha256 fast;
    std::size_t at = 0;
    for (int cut = 0; cut < 3 && at < length; ++cut) {
      const std::size_t take = rng.next_below(length - at + 1);
      fast.update(message.subspan(at, take));
      at += take;
    }
    fast.update(message.subspan(at));
    ASSERT_EQ(fast.digest(), portable.digest()) << "length " << length;
  }

  std::vector<std::uint8_t> mib(1 << 20);
  for (std::uint8_t& byte : mib) byte = static_cast<std::uint8_t>(rng.next_u64());
  Sha256 portable = Sha256::portable();
  portable.update(mib);
  EXPECT_EQ(sha256(mib), portable.digest());
}

TEST(Sha256, SplitAtEveryOffsetMatchesOneShot) {
  std::vector<std::uint8_t> data(200);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 151 + 7);
  }
  // Every message length around the padding and block boundaries, split at
  // every offset; byte-at-a-time feeding only ever uses the buffered path.
  for (std::size_t length : {0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 200}) {
    const std::span<const std::uint8_t> message = std::span(data).first(length);
    const Sha256Digest want = sha256(message);
    for (std::size_t split = 0; split <= length; ++split) {
      Sha256 hasher;
      hasher.update(message.first(split));
      hasher.update(message.subspan(split));
      ASSERT_EQ(hasher.digest(), want) << "length " << length << " split " << split;
    }
    Sha256 bytewise;
    for (const std::uint8_t byte : message) bytewise.update(&byte, 1);
    ASSERT_EQ(bytewise.digest(), want) << "length " << length;
  }
}

// fnv::mix_words guards the compile-service cache images, so its one job is
// to see the corruptions a byte-wise FNV would: each whole word and each
// tail byte must reach the hash through a bijection of the running state,
// and a difference carried out of one word must not be cancelled by a
// fixed flip pattern in the next.
namespace {

void flip(std::vector<std::uint8_t>& image, std::size_t bit) {
  image[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

std::vector<std::uint8_t> random_image(Rng& rng, std::size_t length) {
  std::vector<std::uint8_t> image(length);
  for (auto& byte : image) byte = static_cast<std::uint8_t>(rng.next_u64());
  return image;
}

}  // namespace

TEST(Fnv, MixWordsSeesEverySingleBitFlip) {
  Rng rng(0xF1F0);
  // Lengths 0-67: every tail length 0-7 behind 0 to 8 whole words.
  for (std::size_t length = 0; length < 68; ++length) {
    std::vector<std::uint8_t> image = random_image(rng, length);
    const std::uint64_t clean = fnv::mix_words(fnv::kOffsetBasis, image);
    for (std::size_t bit = 0; bit < 8 * length; ++bit) {
      flip(image, bit);
      ASSERT_NE(fnv::mix_words(fnv::kOffsetBasis, image), clean)
          << "length " << length << " bit " << bit;
      flip(image, bit);
    }
    ASSERT_EQ(fnv::mix_words(fnv::kOffsetBasis, image), clean);
  }
}

// A multiply carries a bit-63 difference nowhere, so a bare xor-multiply
// per word misses every pair of bit-63 flips and most flips confined to
// the words' top bytes.
TEST(Fnv, MixWordsSeesHighBitFlipsAcrossWords) {
  constexpr std::size_t kWords = 16;
  Rng rng(0x7B17);
  std::vector<std::uint8_t> image = random_image(rng, 8 * kWords);
  const std::uint64_t clean = fnv::mix_words(fnv::kOffsetBasis, image);
  for (std::size_t i = 0; i < kWords; ++i) {
    for (std::size_t j = i + 1; j < kWords; ++j) {
      flip(image, 64 * i + 63);
      flip(image, 64 * j + 63);
      EXPECT_NE(fnv::mix_words(fnv::kOffsetBasis, image), clean)
          << "bit 63 of words " << i << " and " << j;
      flip(image, 64 * i + 63);
      flip(image, 64 * j + 63);
    }
  }
  // 2-8 distinct bits, each in the top byte (bits 56-63) of some word.
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t count = 2 + rng.next_below(7);
    std::vector<std::size_t> bits;
    while (bits.size() < count) {
      const std::size_t bit = 64 * rng.next_below(kWords) + 56 +
                              rng.next_below(8);
      if (std::find(bits.begin(), bits.end(), bit) == bits.end()) {
        bits.push_back(bit);
      }
    }
    for (const std::size_t bit : bits) flip(image, bit);
    ASSERT_NE(fnv::mix_words(fnv::kOffsetBasis, image), clean)
        << "trial " << trial << ", " << count << " bits";
    for (const std::size_t bit : bits) flip(image, bit);
  }
}

// Every pattern of one to three flipped bits over two adjacent words, the
// place where a difference left by one word could be cancelled by the next.
TEST(Fnv, MixWordsSeesEveryFlipOfUpToThreeBitsInTwoWords) {
  Rng rng(0x3B175);
  for (int round = 0; round < 4; ++round) {
    // A lead word, then the two flipped ones, then a 3-byte tail.
    std::vector<std::uint8_t> image = random_image(rng, 27);
    const std::uint64_t clean = fnv::mix_words(fnv::kOffsetBasis, image);
    // Bits are numbered from the start of the first flipped word.
    const auto seen = [&](std::initializer_list<std::size_t> bits) {
      for (const std::size_t bit : bits) flip(image, 64 + bit);
      const bool changed = fnv::mix_words(fnv::kOffsetBasis, image) != clean;
      for (const std::size_t bit : bits) flip(image, 64 + bit);
      return changed;
    };
    for (std::size_t a = 0; a < 128; ++a) {
      ASSERT_TRUE(seen({a})) << "round " << round << " bit " << a;
      for (std::size_t b = a + 1; b < 128; ++b) {
        ASSERT_TRUE(seen({a, b}))
            << "round " << round << " bits " << a << " " << b;
        for (std::size_t c = b + 1; c < 128; ++c) {
          ASSERT_TRUE(seen({a, b, c})) << "round " << round << " bits " << a
                                       << " " << b << " " << c;
        }
      }
    }
  }
}

TEST(Fnv, MixWordsFoldsEachWordThenTheHighHalfThenTailBytes) {
  Rng rng(0x3E7);
  for (std::size_t words = 0; words <= 9; ++words) {
    std::vector<std::uint8_t> image;
    bytes::Writer w(image);
    std::uint64_t folded = fnv::kOffsetBasis;
    for (std::size_t i = 0; i < words; ++i) {
      const std::uint64_t word = rng.next_u64();
      w.u64(word);
      folded = fnv::mix_word(folded, word);
      folded = fnv::mix_word(folded, folded >> 32);
    }
    EXPECT_EQ(fnv::mix_words(fnv::kOffsetBasis, image), folded)
        << words << " words";
    // A tail goes byte by byte after the words.
    const std::vector<std::uint8_t> tail = {0x01, 0x80, 0xFF};
    w.raw(tail);
    EXPECT_EQ(fnv::mix_words(fnv::kOffsetBasis, image),
              fnv::mix_bytes(folded, tail))
        << words << " words and a 3-byte tail";
  }
}

TEST(Bits, MaskAndTruncate) {
  EXPECT_EQ(bit_mask(0), 0u);
  EXPECT_EQ(bit_mask(1), 1u);
  EXPECT_EQ(bit_mask(32), 0xFFFFFFFFull);
  EXPECT_EQ(bit_mask(64), ~0ULL);
  EXPECT_EQ(truncate(0x1FF, 8), 0xFFu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xFFFFFFFF, 32), -1);
  EXPECT_EQ(sign_extend(5, 32), 5);
  EXPECT_EQ(sign_extend(~0ULL, 64), -1);
}

TEST(Bits, BitWidthOf) {
  EXPECT_EQ(bit_width_of(0), 1u);
  EXPECT_EQ(bit_width_of(1), 1u);
  EXPECT_EQ(bit_width_of(2), 2u);
  EXPECT_EQ(bit_width_of(255), 8u);
  EXPECT_EQ(bit_width_of(256), 9u);
}

TEST(Bits, Parity) {
  EXPECT_FALSE(parity(0));
  EXPECT_TRUE(parity(1));
  EXPECT_TRUE(parity(0x8000000000000000ull));
  EXPECT_FALSE(parity(0x3));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != b.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedDraws) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%05u", 7u), "00007");
}

TEST(Strings, JoinAndAffixes) {
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_TRUE(starts_with("hermes", "her"));
  EXPECT_FALSE(starts_with("her", "hermes"));
  EXPECT_TRUE(ends_with("bitstream.bin", ".bin"));
}

TEST(Xml, NestedDocumentWithEscaping) {
  XmlWriter xml;
  xml.begin_element("lib");
  xml.attribute("name", "a<b&\"c\"");
  xml.begin_element("cell");
  xml.attribute("width", std::int64_t{32});
  xml.text("payload");
  xml.end_element();
  xml.end_element();
  const std::string doc = xml.str();
  EXPECT_NE(doc.find("a&lt;b&amp;&quot;c&quot;"), std::string::npos);
  EXPECT_NE(doc.find("<cell width=\"32\">"), std::string::npos);
  EXPECT_NE(doc.find("</lib>"), std::string::npos);
}

TEST(Xml, EmptyElementSelfCloses) {
  XmlWriter xml;
  xml.begin_element("root");
  xml.empty_element("leaf", {{"k", "v"}});
  xml.end_element();
  EXPECT_NE(xml.str().find("<leaf k=\"v\"/>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ThreadPool::run_queue — the compile service's drain primitive
// ---------------------------------------------------------------------------

/// Thread-safe pop-then-run counter queue: pull() claims one of `total`
/// tickets and records it, returning false once the tickets run out.
struct TicketQueue {
  explicit TicketQueue(int total) : remaining(total) {}
  bool pull() {
    std::lock_guard<std::mutex> lock(mutex);
    if (remaining == 0) return false;
    claimed.push_back(--remaining);
    return true;
  }
  std::mutex mutex;
  int remaining;
  std::vector<int> claimed;
};

TEST(ThreadPoolRunQueue, InlineWithZeroWorkersDrainsEverything) {
  ThreadPool pool(0);
  TicketQueue queue(100);
  pool.run_queue([&] { return queue.pull(); });
  EXPECT_EQ(queue.claimed.size(), 100u);
  EXPECT_EQ(queue.remaining, 0);
}

TEST(ThreadPoolRunQueue, PooledDrainsEveryTicketExactlyOnce) {
  ThreadPool pool(4);
  TicketQueue queue(1000);
  pool.run_queue([&] { return queue.pull(); });
  ASSERT_EQ(queue.claimed.size(), 1000u);
  std::vector<bool> seen(1000, false);
  for (const int ticket : queue.claimed) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(ticket)])
        << "ticket " << ticket << " claimed twice";
    seen[static_cast<std::size_t>(ticket)] = true;
  }
}

TEST(ThreadPoolRunQueue, EmptyQueueReturnsImmediately) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run_queue([&] {
    ++calls;
    return false;
  });
  // Every participant observes the drained queue at most once.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 3);
}

TEST(ThreadPoolRunQueue, ReusableAcrossSubmissions) {
  ThreadPool pool(2);
  for (int round = 0; round < 5; ++round) {
    TicketQueue queue(50);
    pool.run_queue([&] { return queue.pull(); });
    EXPECT_EQ(queue.claimed.size(), 50u) << "round " << round;
  }
}

// ---- a throwing task reaches the caller ----

/// Runs one full parallel_for and one full run_queue on `pool` and checks
/// that each covered all its work: the pool is usable again.
void expect_pool_runs_another_job(ThreadPool& pool) {
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  TicketQueue queue(100);
  pool.run_queue([&] { return queue.pull(); });
  EXPECT_EQ(queue.claimed.size(), 100u);
}

TEST(ThreadPoolErrors, ParallelForRethrowsOnTheCaller) {
  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    EXPECT_THROW(pool.parallel_for(64,
                                   [](std::size_t i) {
                                     if (i == 5) throw std::runtime_error("5");
                                   }),
                 std::runtime_error)
        << workers << " workers";
    expect_pool_runs_another_job(pool);
  }
}

TEST(ThreadPoolErrors, RunQueueRethrowsOnTheCaller) {
  for (const unsigned workers : {0u, 3u}) {
    ThreadPool pool(workers);
    std::atomic<int> next{0};
    EXPECT_THROW(pool.run_queue([&] {
      const int ticket = next++;
      if (ticket == 5) throw std::runtime_error("5");
      return ticket < 64;
    }),
                 std::runtime_error)
        << workers << " workers";
    expect_pool_runs_another_job(pool);
  }
}

/// Spins until `flag` is set (bounded, so a broken pool fails, not hangs).
void await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolErrors, ThrowOnTheSubmittingThreadWaitsForWorkers) {
  // The caller throws while workers are still inside their bodies; the
  // exception must not leave parallel_for before they do.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_entered{false};
  std::atomic<int> inside{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t) {
                                   if (std::this_thread::get_id() == caller) {
                                     caller_entered = true;
                                     throw std::runtime_error("caller");
                                   }
                                   ++inside;
                                   await(caller_entered);
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   --inside;
                                 }),
               std::runtime_error);
  EXPECT_EQ(inside.load(), 0);
  expect_pool_runs_another_job(pool);
}

TEST(ThreadPoolErrors, ThrowOnAWorkerReachesTheCaller) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t) {
                                   if (std::this_thread::get_id() != caller) {
                                     worker_threw = true;
                                     throw std::runtime_error("worker");
                                   }
                                   await(worker_threw);
                                 }),
               std::runtime_error);
  EXPECT_TRUE(worker_threw.load());
  expect_pool_runs_another_job(pool);
}

}  // namespace
}  // namespace hermes
