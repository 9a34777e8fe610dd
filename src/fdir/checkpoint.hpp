// Checkpoint ring for rollback recovery.
//
// The FDIR recovery rung below a full reboot is "restore the last known-good
// state": the CoW SocSnapshot machinery (a rollback through it is at least
// 5x cheaper than a cold reboot, tests/test_perf_gates.cpp) makes periodic
// checkpoints affordable, and this manager adds the discipline that makes
// them *trustworthy* — a checkpoint is only taken when the system is
// quiescent and digest-clean, so the ring never holds a torn or latently
// corrupt restore target.
#pragma once

#include <cstdint>
#include <vector>

#include "boot/soc.hpp"
#include "common/status.hpp"

namespace hermes::fdir {

/// One restore target: the frozen state plus the evidence it was clean.
struct Checkpoint {
  boot::SocSnapshot snapshot;
  std::uint64_t digest = 0;  ///< eFPGA config digest at take time
  std::uint64_t cycles = 0;  ///< SoC cycle stamp at take time
  std::uint64_t id = 0;      ///< monotonic take ordinal (never reused)
};

struct CheckpointStats {
  std::uint64_t taken = 0;
  std::uint64_t refused = 0;  ///< take() declined: recovering or dirty
  std::uint64_t evicted = 0;  ///< ring-full evictions of the oldest entry
  std::uint64_t dropped = 0;  ///< discarded after failing restore validation
};

/// Bounded ring of SocSnapshots, newest first on lookup. Not thread-safe —
/// the supervisor owns it and runs on one thread, like everything else in
/// the deterministic harness.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::size_t capacity = 4);

  /// Takes a checkpoint of `soc` if it is safe to restore from later:
  ///   * not mid-recovery (set_recovering guards the supervisor's ladder —
  ///     a snapshot taken while a rollback is rewriting state would be torn);
  ///   * no silent configuration rot on record (scrub_silent != 0 means the
  ///     state can no longer be proven clean);
  ///   * when a reference digest is set, the live eFPGA configuration still
  ///     matches it (a latent upset must not be frozen into the ring).
  /// Refusal is clean: kUnavailable-style kInvalidArgument status, counters
  /// bumped, ring untouched.
  Status take(const boot::Soc& soc);

  /// Digest every future take() must match. Typically the digest right after
  /// a verified boot; updated by the supervisor when a reconfiguration is
  /// committed on purpose.
  void set_reference_digest(std::uint64_t digest) {
    reference_digest_ = digest;
    have_reference_ = true;
  }

  /// Recovery guard, toggled by the supervisor around its ladder.
  void set_recovering(bool recovering) { recovering_ = recovering; }
  [[nodiscard]] bool recovering() const { return recovering_; }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return ring_.empty(); }

  /// Newest entry, or nullptr when the ring is empty.
  [[nodiscard]] const Checkpoint* newest() const {
    return ring_.empty() ? nullptr : &ring_.back();
  }

  /// Discards the newest entry (it failed restore validation); the next
  /// newest becomes the rollback candidate.
  void drop_newest();

  [[nodiscard]] const CheckpointStats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  std::vector<Checkpoint> ring_;  ///< oldest at front, newest at back
  CheckpointStats stats_;
  std::uint64_t next_id_ = 0;
  std::uint64_t reference_digest_ = 0;
  bool have_reference_ = false;
  bool recovering_ = false;
};

}  // namespace hermes::fdir
