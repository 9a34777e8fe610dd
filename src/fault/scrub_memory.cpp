#include "fault/scrub_memory.hpp"

#include <cassert>

#include "common/bits.hpp"

namespace hermes::fault {

// Zeroed raw storage is valid under every scheme (edac_encode(0) == 0).
ScrubMemory::ScrubMemory(std::size_t words, Protection protection)
    : protection_(protection), golden_(words, 0), raw_(words, 0) {
  if (protection_ == Protection::kTmr) {
    raw_b_.assign(words, 0);
    raw_c_.assign(words, 0);
  }
}

void ScrubMemory::write(std::size_t index, std::uint32_t value) {
  assert(index < golden_.size());
  golden_[index] = value;
  switch (protection_) {
    case Protection::kNone:
      raw_[index] = value;
      break;
    case Protection::kEdac:
      raw_[index] = edac_encode(value);
      break;
    case Protection::kTmr:
      raw_[index] = raw_b_[index] = raw_c_[index] = value;
      break;
  }
}

std::uint32_t ScrubMemory::read(std::size_t index) const {
  assert(index < golden_.size());
  switch (protection_) {
    case Protection::kNone:
      return static_cast<std::uint32_t>(raw_[index]);
    case Protection::kEdac: {
      std::uint32_t data = 0;
      edac_decode(raw_[index], data);
      return data;
    }
    case Protection::kTmr:
      return static_cast<std::uint32_t>(
          vote_bitwise(raw_[index], raw_b_[index], raw_c_[index]).value);
  }
  return 0;
}

std::size_t ScrubMemory::raw_bits() const {
  switch (protection_) {
    case Protection::kNone: return golden_.size() * 32;
    case Protection::kEdac: return golden_.size() * kEdacCodewordBits;
    case Protection::kTmr: return golden_.size() * 32 * 3;
  }
  return 0;
}

unsigned ScrubMemory::codeword_bits() const {
  switch (protection_) {
    case Protection::kNone: return 32;
    case Protection::kEdac: return kEdacCodewordBits;
    case Protection::kTmr: return 32;
  }
  return 32;
}

void ScrubMemory::flip_raw_bit(std::size_t index, unsigned bit) {
  assert(index < golden_.size() && bit < codeword_bits());
  raw_[index] ^= 1ULL << bit;
}

ScrubReport ScrubMemory::scrub_range(std::size_t begin, std::size_t end,
                                     bool repair_uncorrectable) {
  assert(begin <= end && end <= golden_.size());
  ScrubReport report;
  // Read through the scheme, rewrite, and compare with golden.
  for (std::size_t i = begin; i < end; ++i) {
    switch (protection_) {
      case Protection::kNone: {
        const auto seen = static_cast<std::uint32_t>(raw_[i]);
        if (seen != golden_[i]) ++report.silent_corruptions;
        break;
      }
      case Protection::kEdac: {
        std::uint32_t data = 0;
        const EdacStatus status = edac_decode(raw_[i], data);
        if (status == EdacStatus::kDoubleError) {
          ++report.detected_uncorrectable;
          if (repair_uncorrectable) {
            raw_[i] = edac_encode(golden_[i]);
            ++report.repaired;
          }
          // Otherwise: leave word as-is; upper layer must re-fetch.
        } else {
          if (status == EdacStatus::kCorrected) ++report.corrected;
          if (data != golden_[i]) {
            ++report.silent_corruptions;  // mis-correction (e.g. 3-bit upset)
          } else {
            raw_[i] = edac_encode(data);  // scrub: rewrite clean codeword
          }
        }
        break;
      }
      case Protection::kTmr: {
        const VoteResult vote = vote_bitwise(raw_[i], raw_b_[i], raw_c_[i]);
        if (vote.corrected) ++report.corrected;
        const auto voted = static_cast<std::uint32_t>(vote.value);
        if (voted != golden_[i]) {
          ++report.silent_corruptions;  // two replicas hit in the same bit
        } else {
          raw_[i] = raw_b_[i] = raw_c_[i] = voted;  // scrub replicas
        }
        break;
      }
    }
  }
  publish_scrub(report);
  return report;
}

void ScrubMemory::publish_scrub(const ScrubReport& report) {
  if (!fdir_) return;
  const std::uint64_t stamp = scrub_ordinal_++;
  const auto emit = [&](fdir::Severity severity, ErrorCode code,
                        std::size_t count) {
    if (count == 0) return;
    fdir_->publish({fdir_layer_, severity, code,
                    static_cast<std::uint32_t>(count), stamp});
  };
  emit(fdir::Severity::kCorrected, ErrorCode::kOk, report.corrected);
  emit(fdir::Severity::kRetried, ErrorCode::kIntegrityError, report.repaired);
  emit(fdir::Severity::kUncorrectable, ErrorCode::kIntegrityError,
       report.detected_uncorrectable - report.repaired);
  // A silent corruption escaped the scheme entirely — the strongest possible
  // detection this layer can make (and only via the golden comparison).
  emit(fdir::Severity::kExhausted, ErrorCode::kIntegrityError,
       report.silent_corruptions);
}

ScrubReport ScrubMemory::inject_and_scrub(const SeuCampaignConfig& config,
                                          Rng& rng) {
  ScrubReport report;
  SeuCampaignConfig cfg = config;
  switch (protection_) {
    case Protection::kNone: cfg.bits_per_word = 32; break;
    case Protection::kEdac: cfg.bits_per_word = kEdacCodewordBits; break;
    case Protection::kTmr: cfg.bits_per_word = 32; break;
  }

  auto inject = [&](std::vector<std::uint64_t>& bank) {
    const auto upsets = draw_upsets(cfg, bank.size(), rng);
    apply_upsets(bank, upsets);
    report.injected_upsets += upsets.size();
  };
  inject(raw_);
  if (protection_ == Protection::kTmr) {
    inject(raw_b_);
    inject(raw_c_);
  }

  report.accumulate(scrub_range(0, golden_.size()));
  return report;
}

}  // namespace hermes::fault
