#include "boot/flash.hpp"

#include <algorithm>
#include <cassert>

#include "fault/tmr.hpp"

namespace hermes::boot {

void FlashDevice::program(std::uint64_t addr, std::span<const std::uint8_t> data) {
  if (addr >= size()) return;
  store_.write(addr, data.first(std::min<std::uint64_t>(data.size(), size() - addr)));
}

std::uint64_t FlashDevice::read(std::uint64_t addr,
                                std::span<std::uint8_t> out) const {
  const std::size_t held =
      addr < size() ? std::min<std::uint64_t>(out.size(), size() - addr) : 0;
  if (held > 0) store_.read(addr, out.first(held));
  std::fill(out.begin() + held, out.end(), std::uint8_t{0xFF});
  const std::uint64_t words = (out.size() + 3) / 4;
  return timing_.setup_cycles + words * timing_.cycles_per_word;
}

void FlashDevice::inject_bitflips(std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t byte = rng.next_below(size());
    const unsigned bit = static_cast<unsigned>(rng.next_below(8));
    std::uint8_t value = 0;
    store_.read(byte, std::span(&value, 1));
    value ^= static_cast<std::uint8_t>(1u << bit);
    store_.write(byte, std::span(&value, 1));
  }
}

FlashBank::FlashBank(std::size_t bytes, unsigned replicas, FlashTiming timing) {
  assert(replicas == 1 || replicas == 3);
  for (unsigned i = 0; i < replicas; ++i) {
    devices_.emplace_back(bytes, timing);
  }
}

void FlashBank::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) {
    pt_rot_replica_ = fault::kNoFaultPoint;
    pt_rot_voted_ = fault::kNoFaultPoint;
    return;
  }
  pt_rot_replica_ = injector_->register_point("flash.rot.replica");
  pt_rot_voted_ = injector_->register_point("flash.rot.voted");
}

void FlashBank::program(std::uint64_t addr, std::span<const std::uint8_t> data) {
  for (FlashDevice& device : devices_) device.program(addr, data);
}

FlashBank::ReadResult FlashBank::read(std::uint64_t addr,
                                      std::span<std::uint8_t> out) const {
  ReadResult result;
  if (devices_.size() == 1) {
    result.cycles = devices_[0].read(addr, out);
    if (injector_ && injector_->should_fire(pt_rot_voted_)) {
      injector_->mutate_bytes(pt_rot_voted_, out);
    }
    return result;
  }
  // Replica 0 is read straight into `out` and voted in place; replicas 1
  // and 2 share one scratch buffer.
  std::vector<std::uint8_t> scratch(2 * out.size());
  const std::span<std::uint8_t> b = std::span(scratch).first(out.size());
  const std::span<std::uint8_t> c = std::span(scratch).last(out.size());
  result.cycles += devices_[0].read(addr, out);
  result.cycles += devices_[1].read(addr, b);
  result.cycles += devices_[2].read(addr, c);
  if (injector_ && injector_->should_fire(pt_rot_replica_)) {
    // Rot one copy's read data: the bitwise vote masks it (and counts it).
    injector_->mutate_bytes(pt_rot_replica_, out);
  }
  result.corrected_bytes = fault::vote_images(out, b, c, out).corrected_words;
  if (injector_ && injector_->should_fire(pt_rot_voted_)) {
    // Rot the post-vote data: TMR cannot help; the BL1 digest check must.
    injector_->mutate_bytes(pt_rot_voted_, out);
  }
  return result;
}

}  // namespace hermes::boot
