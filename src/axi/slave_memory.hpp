// AXI4 slave memory model with configurable delay.
//
// "Memory delay estimates can also be configured to assess the performance of
// the application considering also data transfers" (HERMES, Sec. II). The
// model charges a base latency per transaction (row activation / arbitration)
// plus one cycle per beat (or more, for slow memories), which is what makes
// burst transfers win over repeated single-beat accesses in the AXI
// benchmark.
//
// The slave is also the producer half of the error-response path: accesses
// outside the backing store answer DECERR (configurable for legacy traffic),
// and an attached fault::FaultInjector can stall handshakes, corrupt read
// data, or force SLVERR responses to exercise the master's recovery code.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "axi/protocol.hpp"
#include "fault/injector.hpp"

namespace hermes::axi {

struct MemoryTiming {
  unsigned read_latency = 8;   ///< cycles from AR accept to first R beat
  unsigned write_latency = 6;  ///< cycles from last W beat to B response
  unsigned cycles_per_beat = 1;
  unsigned max_outstanding = 4;
  /// Out-of-range beats answer DECERR (AXI default-slave behaviour). Set to
  /// false for the legacy model: reads return 0, writes are dropped, OKAY.
  bool oob_decerr = true;
};

/// Cycle-driven AXI4 slave backed by a byte array. Requests are enqueued via
/// the channel methods; tick() advances one bus clock; responses pop out of
/// the R / B queues when ready.
class AxiSlaveMemory {
 public:
  AxiSlaveMemory(std::size_t bytes, MemoryTiming timing);

  /// Registers this slave's injection points ("axi.*") on `injector`.
  /// Pass nullptr to detach.
  void attach_injector(fault::FaultInjector* injector);

  // ---- backing-store backdoor (testbench / DMA preload) ----
  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] std::uint8_t peek(std::uint64_t addr) const;
  void poke(std::uint64_t addr, std::uint8_t value);
  std::uint64_t peek_word(std::uint64_t addr, unsigned bytes) const;
  void poke_word(std::uint64_t addr, std::uint64_t value, unsigned bytes);

  // ---- AXI channels ----
  /// AR channel: returns false (not ready) when too many reads in flight.
  bool push_read(const AddrBeat& ar);
  /// AW+W channels: the full write burst is presented at once; returns false
  /// when the write queue is full.
  bool push_write(const AddrBeat& aw, const std::vector<WriteBeat>& beats);

  /// R channel: pops the next ready read beat, if any.
  bool pop_read_beat(ReadBeat& out);
  /// B channel: pops a ready write response, if any.
  bool pop_write_resp(Resp& out, unsigned& id);

  /// Drops every in-flight transaction (the bus-reset a master performs
  /// after its transaction watchdog trips, so stale beats from an abandoned
  /// burst can never leak into the next transfer).
  void abort_pending();

  /// One bus clock.
  void tick();

  [[nodiscard]] std::uint64_t cycles() const { return now_; }

 private:
  struct PendingRead {
    AddrBeat ar;
    std::uint64_t ready_at;  ///< cycle of first beat availability
    unsigned next_beat = 0;
    std::uint64_t next_beat_at = 0;
  };
  struct PendingWrite {
    AddrBeat aw;
    std::vector<WriteBeat> beats;
    std::uint64_t resp_at;
  };

  std::vector<std::uint8_t> store_;
  MemoryTiming timing_;
  std::uint64_t now_ = 0;
  std::deque<PendingRead> reads_;
  std::deque<PendingWrite> writes_;

  fault::FaultInjector* injector_ = nullptr;
  fault::PointId pt_ar_stall_ = fault::kNoFaultPoint;
  fault::PointId pt_aw_stall_ = fault::kNoFaultPoint;
  fault::PointId pt_r_stall_ = fault::kNoFaultPoint;
  fault::PointId pt_r_corrupt_ = fault::kNoFaultPoint;
  fault::PointId pt_r_slverr_ = fault::kNoFaultPoint;
  fault::PointId pt_b_slverr_ = fault::kNoFaultPoint;
};

}  // namespace hermes::axi
