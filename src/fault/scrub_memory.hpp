// A memory model with selectable protection scheme, used by the fault
// campaign benchmarks (DESIGN.md experiment TMR) to compare unprotected,
// EDAC-protected, and TMR-protected storage under SEU injection — the design
// space NG-ULTRA's hardening occupies.
#pragma once

#include <cstdint>
#include <vector>

#include "common/enum_names.hpp"
#include "common/rng.hpp"
#include "fault/edac.hpp"
#include "fault/seu.hpp"
#include "fault/tmr.hpp"
#include "fdir/event.hpp"

namespace hermes::fault {

#define HERMES_PROTECTIONS(X)                                                 \
  X(kNone, "none") X(kEdac, "edac") X(kTmr, "tmr")
HERMES_ENUM(Protection, int, HERMES_PROTECTIONS)

/// Outcome counters of one injection + scrub + readback round.
struct ScrubReport {
  std::size_t injected_upsets = 0;
  std::size_t corrected = 0;        ///< errors masked/corrected by the scheme
  std::size_t detected_uncorrectable = 0;  ///< flagged but not fixed (EDAC double)
  std::size_t silent_corruptions = 0;      ///< readback differs from golden, unflagged
  std::size_t repaired = 0;  ///< uncorrectable words re-written from golden
                             ///< (scrub_range with repair_uncorrectable)

  void accumulate(const ScrubReport& other) {
    injected_upsets += other.injected_upsets;
    corrected += other.corrected;
    detected_uncorrectable += other.detected_uncorrectable;
    silent_corruptions += other.silent_corruptions;
    repaired += other.repaired;
  }
};

/// A word-addressable 32-bit memory with transparent protection: writes encode
/// (or replicate), reads decode (or vote). inject_and_scrub() runs one
/// radiation interval followed by a scrub pass, returning what the scheme saw.
class ScrubMemory {
 public:
  ScrubMemory(std::size_t words, Protection protection);

  void write(std::size_t index, std::uint32_t value);
  /// Reads through the protection scheme (vote/decode), performing correction.
  [[nodiscard]] std::uint32_t read(std::size_t index) const;

  [[nodiscard]] std::size_t size() const { return golden_.size(); }
  [[nodiscard]] Protection protection() const { return protection_; }

  /// Applies one SEU interval to the raw storage and scrubs every word,
  /// rewriting corrected values. Counters compare against the golden copy.
  ScrubReport inject_and_scrub(const SeuCampaignConfig& config, Rng& rng);

  /// Scrub-only pass over [begin, end): read through the protection scheme,
  /// rewrite clean words, count what the scheme saw. With
  /// `repair_uncorrectable` set, a detected-uncorrectable word is re-written
  /// from the golden copy (modeling re-configuration from a retained source
  /// image) and counted in ScrubReport::repaired instead of being left rotten.
  ScrubReport scrub_range(std::size_t begin, std::size_t end,
                          bool repair_uncorrectable = false);

  /// Whole-memory scrub pass.
  ScrubReport scrub(bool repair_uncorrectable = false) {
    return scrub_range(0, golden_.size(), repair_uncorrectable);
  }

  /// Flips one bit of word `index`'s raw storage (replica A for TMR) —
  /// targeted, injector-driven damage. One flip is correctable under EDAC;
  /// two distinct flips in the same word are detected-uncorrectable.
  void flip_raw_bit(std::size_t index, unsigned bit);

  /// Raw storage bit count (for per-bit upset-rate normalization).
  [[nodiscard]] std::size_t raw_bits() const;

  /// Bits per raw codeword under the active scheme.
  [[nodiscard]] unsigned codeword_bits() const;

  /// Wires this memory's scrub outcomes onto an FDIR event bus: every
  /// scrub_range() call publishes what it saw (corrections, detected-
  /// uncorrectable words, golden repairs, silent corruptions) under `layer`,
  /// stamped with a per-memory scrub-pass ordinal. Pass nullptr to detach.
  /// Note the Soc does NOT wire its internal configuration memory — it
  /// publishes at frame granularity itself; this hook serves standalone
  /// scrub memories (campaign targets, mission data stores).
  void attach_event_bus(fdir::FdirBus* bus,
                        fdir::Layer layer = fdir::Layer::kMemory) {
    fdir_ = bus;
    fdir_layer_ = layer;
  }

 private:
  void publish_scrub(const ScrubReport& report);

  Protection protection_;
  std::vector<std::uint32_t> golden_;  ///< what software believes is stored
  // Raw storage; layout depends on the scheme.
  std::vector<std::uint64_t> raw_;      // kNone: 1 word; kEdac: 1 codeword
  std::vector<std::uint64_t> raw_b_;    // kTmr replica B
  std::vector<std::uint64_t> raw_c_;    // kTmr replica C
  fdir::FdirBus* fdir_ = nullptr;       // not state: copies share the wiring
  fdir::Layer fdir_layer_ = fdir::Layer::kMemory;
  std::uint64_t scrub_ordinal_ = 0;     // monotonic stamp for published events
};

}  // namespace hermes::fault
