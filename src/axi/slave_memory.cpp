#include "axi/slave_memory.hpp"

#include <cassert>

namespace hermes::axi {

AxiSlaveMemory::AxiSlaveMemory(std::size_t bytes, MemoryTiming timing)
    : store_(bytes, 0), timing_(timing) {}

void AxiSlaveMemory::attach_injector(fault::FaultInjector* injector) {
  injector_ = injector;
  if (!injector_) {
    pt_ar_stall_ = pt_aw_stall_ = pt_r_stall_ = fault::kNoFaultPoint;
    pt_r_corrupt_ = pt_r_slverr_ = pt_b_slverr_ = fault::kNoFaultPoint;
    return;
  }
  pt_ar_stall_ = injector_->register_point("axi.ar.stall");
  pt_aw_stall_ = injector_->register_point("axi.aw.stall");
  pt_r_stall_ = injector_->register_point("axi.r.stall");
  pt_r_corrupt_ = injector_->register_point("axi.r.corrupt");
  pt_r_slverr_ = injector_->register_point("axi.r.slverr");
  pt_b_slverr_ = injector_->register_point("axi.b.slverr");
}

std::uint8_t AxiSlaveMemory::peek(std::uint64_t addr) const {
  return addr < store_.size() ? store_[addr] : 0;
}

void AxiSlaveMemory::poke(std::uint64_t addr, std::uint8_t value) {
  if (addr < store_.size()) store_[addr] = value;
}

std::uint64_t AxiSlaveMemory::peek_word(std::uint64_t addr, unsigned bytes) const {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(peek(addr + i)) << (8 * i);
  }
  return value;
}

void AxiSlaveMemory::poke_word(std::uint64_t addr, std::uint64_t value,
                               unsigned bytes) {
  for (unsigned i = 0; i < bytes; ++i) {
    poke(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

bool AxiSlaveMemory::push_read(const AddrBeat& ar) {
  if (injector_ && injector_->should_fire(pt_ar_stall_)) return false;
  if (reads_.size() >= timing_.max_outstanding) return false;
  assert(validate_burst(ar).ok());
  PendingRead pending;
  pending.ar = ar;
  pending.ready_at = now_ + timing_.read_latency;
  pending.next_beat_at = pending.ready_at;
  reads_.push_back(pending);
  return true;
}

bool AxiSlaveMemory::push_write(const AddrBeat& aw,
                                const std::vector<WriteBeat>& beats) {
  if (injector_ && injector_->should_fire(pt_aw_stall_)) return false;
  if (writes_.size() >= timing_.max_outstanding) return false;
  assert(validate_burst(aw).ok());
  assert(beats.size() == aw.len + 1u);
  PendingWrite pending;
  pending.aw = aw;
  pending.beats = beats;
  pending.resp_at = now_ + timing_.write_latency +
                    static_cast<std::uint64_t>(beats.size()) * timing_.cycles_per_beat;
  writes_.push_back(pending);
  return true;
}

bool AxiSlaveMemory::pop_read_beat(ReadBeat& out) {
  if (reads_.empty()) return false;
  PendingRead& pending = reads_.front();
  if (now_ < pending.next_beat_at) return false;
  if (injector_ && injector_->should_fire(pt_r_stall_)) return false;

  const std::uint64_t addr = beat_address(pending.ar, pending.next_beat);
  const unsigned bytes = 1u << pending.ar.size_log2;
  const bool in_range = addr + bytes <= store_.size();
  out.data = peek_word(addr, bytes);
  out.resp = in_range || !timing_.oob_decerr ? Resp::kOkay : Resp::kDecErr;
  out.id = pending.ar.id;
  out.last = pending.next_beat == pending.ar.len;
  if (injector_) {
    if (injector_->should_fire(pt_r_corrupt_)) {
      out.data = injector_->mutate_word(pt_r_corrupt_, out.data, 8 * bytes);
    }
    if (out.resp == Resp::kOkay && injector_->should_fire(pt_r_slverr_)) {
      out.resp = Resp::kSlvErr;
    }
  }
  ++pending.next_beat;
  pending.next_beat_at = now_ + timing_.cycles_per_beat;
  if (out.last) reads_.pop_front();
  return true;
}

bool AxiSlaveMemory::pop_write_resp(Resp& out, unsigned& id) {
  if (writes_.empty()) return false;
  PendingWrite& pending = writes_.front();
  if (now_ < pending.resp_at) return false;

  id = pending.aw.id;
  if (injector_ && injector_->should_fire(pt_b_slverr_)) {
    // Slave-side failure: the burst is NOT committed, so a retry of the same
    // (idempotent) burst observes a clean slate.
    out = Resp::kSlvErr;
    writes_.pop_front();
    return true;
  }

  // Commit all beats with strobes.
  bool error = false;
  for (unsigned beat = 0; beat <= pending.aw.len; ++beat) {
    const std::uint64_t addr = beat_address(pending.aw, beat);
    const unsigned bytes = 1u << pending.aw.size_log2;
    if (addr + bytes > store_.size()) {
      error = true;
      continue;
    }
    const WriteBeat& wb = pending.beats[beat];
    for (unsigned lane = 0; lane < bytes; ++lane) {
      if (wb.strb & (1u << lane)) {
        poke(addr + lane, static_cast<std::uint8_t>(wb.data >> (8 * lane)));
      }
    }
  }
  out = error && timing_.oob_decerr ? Resp::kDecErr : Resp::kOkay;
  writes_.pop_front();
  return true;
}

void AxiSlaveMemory::abort_pending() {
  reads_.clear();
  writes_.clear();
}

void AxiSlaveMemory::tick() { ++now_; }

}  // namespace hermes::axi
