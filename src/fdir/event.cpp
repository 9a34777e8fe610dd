#include "fdir/event.hpp"

namespace hermes::fdir {

FdirBus::FdirBus(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
  queue_.reserve(capacity_);
}

void FdirBus::publish(const FdirEvent& event) {
  if (queue_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  queue_.push_back(event);
  ++published_;
}

std::vector<FdirEvent> FdirBus::drain() {
  std::vector<FdirEvent> out;
  out.swap(queue_);
  queue_.reserve(capacity_);
  return out;
}

}  // namespace hermes::fdir
