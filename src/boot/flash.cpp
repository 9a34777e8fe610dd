#include "boot/flash.hpp"

#include <cassert>

#include "fault/tmr.hpp"

namespace hermes::boot {

void FlashDevice::program(std::uint64_t addr, std::span<const std::uint8_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (addr + i < store_.size()) store_[addr + i] = data[i];
  }
}

std::uint64_t FlashDevice::read(std::uint64_t addr,
                                std::span<std::uint8_t> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = peek(addr + i);
  }
  const std::uint64_t words = (out.size() + 3) / 4;
  return timing_.setup_cycles + words * timing_.cycles_per_word;
}

void FlashDevice::inject_bitflips(std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t byte = rng.next_below(store_.size());
    const unsigned bit = static_cast<unsigned>(rng.next_below(8));
    store_[byte] ^= static_cast<std::uint8_t>(1u << bit);
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
  std::vector<std::uint8_t> a(out.size()), b(out.size()), c(out.size());
  result.cycles += devices_[0].read(addr, a);
  result.cycles += devices_[1].read(addr, b);
  result.cycles += devices_[2].read(addr, c);
  if (injector_ && injector_->should_fire(pt_rot_replica_)) {
    // Rot one copy's read data: the bitwise vote masks it (and counts it).
    injector_->mutate_bytes(pt_rot_replica_, a);
  }
  result.corrected_bytes = fault::vote_images(a, b, c, out).corrected_words;
  if (injector_ && injector_->should_fire(pt_rot_voted_)) {
    // Rot the post-vote data: TMR cannot help; the BL1 digest check must.
    injector_->mutate_bytes(pt_rot_voted_, out);
  }
  return result;
}

}  // namespace hermes::boot
