// Copy-on-write paged byte memory.
//
// The SoC model carries ~9 MB of byte-accurate memory (TCM + SRAM + DDR).
// Chaos campaigns want hundreds of SoC replicas forked from one booted
// system; copying the vectors per replica would dominate the campaign.
// CowMemory stores the bytes in 4 KB pages behind shared_ptrs: copying a
// CowMemory copies the page table (one pointer per page), and a page is
// cloned only when a write lands on a page some other copy still shares.
// A null page table entry stands for a page full of the background fill
// byte, so fresh construction is O(pages) pointer writes — no memset of
// megabytes — and untouched pages cost no storage at all.
//
// Thread-safety: the refcount operations are atomic, so distinct forks may
// be read and written from distinct threads concurrently (the campaign
// pattern: fork on one thread, hand each fork to a worker). One CowMemory
// object must not be mutated from two threads at once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace hermes {

class CowMemory {
 public:
  static constexpr std::size_t kPageSize = 4096;

  CowMemory() = default;
  explicit CowMemory(std::size_t bytes, std::uint8_t fill = 0);

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Copies bytes out of / into [offset, offset + span size). The caller is
  /// responsible for bounds (the SoC memory map resolves ranges first);
  /// out-of-range access asserts in debug builds.
  void read(std::size_t offset, std::span<std::uint8_t> out) const;
  void write(std::size_t offset, std::span<const std::uint8_t> data);

  /// Number of materialized pages this copy still shares with `other`
  /// (same page object, not merely equal bytes). Observability hook for the
  /// fork tests and docs/CAMPAIGNS.md examples.
  [[nodiscard]] std::size_t pages_shared_with(const CowMemory& other) const;

 private:
  using Page = std::array<std::uint8_t, kPageSize>;

  /// Materializes page `index` for writing: allocates a fill page when
  /// absent, clones when shared with another copy.
  Page& writable_page(std::size_t index);

  std::size_t size_ = 0;
  std::uint8_t fill_ = 0;
  std::vector<std::shared_ptr<Page>> pages_;
};

}  // namespace hermes
