// Configurable AXI cache with optional next-line prefetching.
//
// Implements the extension the paper names as future work: "adding support
// for prefetching and caching mechanisms might drastically reduce the
// average access time. Furthermore, Bambu will be extended to support the
// customization of cache sizes, associativity, and other features" (HERMES,
// Sec. II). The cache sits between a per-access accelerator master and the
// AXI slave memory: hits cost one cycle; misses fetch a whole line with one
// INCR burst (amortizing the transaction latency); an optional sequential
// prefetcher fetches the next line(s) on a miss.
//
// Set-associative, true-LRU replacement, write-back/write-allocate or
// write-through/no-allocate.
#pragma once

#include <cstdint>
#include <vector>

#include "axi/master.hpp"

namespace hermes::axi {

struct CacheConfig {
  std::size_t size_bytes = 1024;
  unsigned associativity = 2;
  unsigned line_bytes = 32;
  bool write_back = true;      ///< false = write-through, no write-allocate
  unsigned prefetch_lines = 0; ///< sequential next-line prefetch depth
};

struct CacheStats {
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t evictions = 0, writebacks = 0;
  std::uint64_t prefetches = 0, prefetch_hits = 0;
  std::uint64_t cycles = 0;      ///< total access cycles incl. bus traffic
  std::uint64_t bus_errors = 0;  ///< fills/writebacks the master failed
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class AxiCache {
 public:
  /// `config.size_bytes` must be a multiple of associativity * line_bytes.
  AxiCache(AxiMaster& master, const CacheConfig& config);

  /// Cached read/write of up to 8 bytes (little-endian), like the per-access
  /// master interface it replaces.
  std::uint64_t read_word(std::uint64_t addr, unsigned bytes);
  void write_word(std::uint64_t addr, std::uint64_t value, unsigned bytes);

  /// Writes back all dirty lines (required before handing the memory to
  /// another master — the DMA-out step of the wrapper).
  void flush();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    std::vector<std::uint8_t> data;
  };

  [[nodiscard]] std::size_t set_index(std::uint64_t addr) const;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const;
  /// Returns the line holding `addr`, filling on miss; `for_write` decides
  /// allocation policy under write-through.
  Line* lookup_fill(std::uint64_t addr, bool for_write);
  Line& victim(std::size_t set);
  void fill_line(Line& line, std::uint64_t addr, bool prefetched);
  void write_back_line(Line& line, std::size_t set);

  AxiMaster& master_;
  CacheConfig config_;
  std::size_t num_sets_;
  std::vector<Line> lines_;  ///< num_sets_ x associativity, row-major
  std::uint64_t clock_ = 0;  ///< LRU timestamp source
  CacheStats stats_;
};

}  // namespace hermes::axi
