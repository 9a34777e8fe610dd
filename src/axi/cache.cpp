#include "axi/cache.hpp"

#include <cassert>

namespace hermes::axi {

AxiCache::AxiCache(AxiMaster& master, const CacheConfig& config)
    : master_(master), config_(config) {
  assert(config_.line_bytes >= 8 && (config_.line_bytes & (config_.line_bytes - 1)) == 0);
  assert(config_.associativity >= 1);
  num_sets_ = config_.size_bytes /
              (static_cast<std::size_t>(config_.associativity) * config_.line_bytes);
  if (num_sets_ == 0) num_sets_ = 1;
  lines_.resize(num_sets_ * config_.associativity);
  for (Line& line : lines_) line.data.assign(config_.line_bytes, 0);
}

std::size_t AxiCache::set_index(std::uint64_t addr) const {
  return (addr / config_.line_bytes) % num_sets_;
}

std::uint64_t AxiCache::tag_of(std::uint64_t addr) const {
  return addr / config_.line_bytes / num_sets_;
}

AxiCache::Line& AxiCache::victim(std::size_t set) {
  Line* best = nullptr;
  for (unsigned way = 0; way < config_.associativity; ++way) {
    Line& line = lines_[set * config_.associativity + way];
    if (!line.valid) return line;
    if (!best || line.lru < best->lru) best = &line;
  }
  return *best;
}

void AxiCache::write_back_line(Line& line, std::size_t set) {
  if (!line.valid || !line.dirty) return;
  const std::uint64_t base =
      (line.tag * num_sets_ + set) * config_.line_bytes;
  const std::uint64_t before = master_.stats().cycles;
  if (!master_.write(base, line.data).ok()) ++stats_.bus_errors;
  stats_.cycles += master_.stats().cycles - before;
  ++stats_.writebacks;
  line.dirty = false;
}

void AxiCache::fill_line(Line& line, std::uint64_t addr, bool prefetched) {
  const std::uint64_t base = (addr / config_.line_bytes) * config_.line_bytes;
  const std::uint64_t before = master_.stats().cycles;
  if (!master_.read(base, line.data).ok()) ++stats_.bus_errors;
  stats_.cycles += master_.stats().cycles - before;
  line.valid = true;
  line.dirty = false;
  line.prefetched = prefetched;
  line.tag = tag_of(addr);
  line.lru = clock_;
  if (prefetched) ++stats_.prefetches;
}

AxiCache::Line* AxiCache::lookup_fill(std::uint64_t addr, bool for_write) {
  ++clock_;
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  for (unsigned way = 0; way < config_.associativity; ++way) {
    Line& line = lines_[set * config_.associativity + way];
    if (line.valid && line.tag == tag) {
      ++stats_.hits;
      ++stats_.cycles;  // hit: one cycle
      if (line.prefetched) {
        ++stats_.prefetch_hits;
        line.prefetched = false;  // count the first demand hit only
      }
      line.lru = clock_;
      return &line;
    }
  }
  ++stats_.misses;
  if (for_write && !config_.write_back) {
    return nullptr;  // write-through + no-allocate: go straight to memory
  }
  Line& line = victim(set);
  if (line.valid) {
    ++stats_.evictions;
    write_back_line(line, set);
  }
  fill_line(line, addr, /*prefetched=*/false);

  // Sequential prefetch: pull the next line(s) into their own sets if absent.
  for (unsigned p = 1; p <= config_.prefetch_lines; ++p) {
    const std::uint64_t next = addr + static_cast<std::uint64_t>(p) * config_.line_bytes;
    const std::size_t next_set = set_index(next);
    const std::uint64_t next_tag = tag_of(next);
    bool present = false;
    for (unsigned way = 0; way < config_.associativity; ++way) {
      Line& cand = lines_[next_set * config_.associativity + way];
      if (cand.valid && cand.tag == next_tag) {
        present = true;
        break;
      }
    }
    if (present) continue;
    Line& pline = victim(next_set);
    if (pline.valid) {
      ++stats_.evictions;
      write_back_line(pline, next_set);
    }
    fill_line(pline, next, /*prefetched=*/true);
  }
  return &line;
}

std::uint64_t AxiCache::read_word(std::uint64_t addr, unsigned bytes) {
  assert(bytes >= 1 && bytes <= 8);
  ++stats_.reads;
  Line* line = lookup_fill(addr, /*for_write=*/false);
  assert(line != nullptr);
  const std::size_t offset = addr % config_.line_bytes;
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bytes && offset + i < config_.line_bytes; ++i) {
    value |= static_cast<std::uint64_t>(line->data[offset + i]) << (8 * i);
  }
  return value;
}

void AxiCache::write_word(std::uint64_t addr, std::uint64_t value,
                          unsigned bytes) {
  assert(bytes >= 1 && bytes <= 8);
  ++stats_.writes;
  Line* line = lookup_fill(addr, /*for_write=*/true);
  if (!line) {
    // Write-through miss without allocation.
    const std::uint64_t before = master_.stats().cycles;
    if (!master_.write_word(addr, value, bytes).ok()) ++stats_.bus_errors;
    stats_.cycles += master_.stats().cycles - before;
    return;
  }
  const std::size_t offset = addr % config_.line_bytes;
  for (unsigned i = 0; i < bytes && offset + i < config_.line_bytes; ++i) {
    line->data[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  if (config_.write_back) {
    line->dirty = true;
  } else {
    const std::uint64_t before = master_.stats().cycles;
    if (!master_.write_word(addr, value, bytes).ok()) ++stats_.bus_errors;
    stats_.cycles += master_.stats().cycles - before;
  }
}

void AxiCache::flush() {
  for (std::size_t set = 0; set < num_sets_; ++set) {
    for (unsigned way = 0; way < config_.associativity; ++way) {
      write_back_line(lines_[set * config_.associativity + way], set);
    }
  }
}

}  // namespace hermes::axi
