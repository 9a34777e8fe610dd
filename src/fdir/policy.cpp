#include "fdir/policy.hpp"

namespace hermes::fdir {

PolicyEngine::PolicyEngine(PolicyConfig config) : config_(config) {
  if (config_.window == 0) config_.window = 1;
}

IsolationAction PolicyEngine::isolation_for(Layer layer) {
  switch (layer) {
    case Layer::kEfpga:
    case Layer::kBoot:
      return IsolationAction::kQuarantineAccelerator;
    case Layer::kHypervisor:
      return IsolationAction::kSuspendPartition;
    case Layer::kAxi:
    case Layer::kMemory:
      return IsolationAction::kFenceMemory;
    case Layer::kDataflow:
      return IsolationAction::kShedDataflow;
    case Layer::kSupervisor:
      return IsolationAction::kNone;
  }
  return IsolationAction::kNone;
}

std::vector<Decision> PolicyEngine::observe(const FdirEvent& event) {
  const std::uint64_t index = arrival_++;
  LayerWindow& window = windows_[static_cast<std::size_t>(event.layer)];
  window.events.push_back(index);
  if (event.severity >= Severity::kUncorrectable) {
    window.uncorrectable.push_back(index);
  }
  const auto expire = [&](std::deque<std::uint64_t>& entries) {
    while (!entries.empty() && entries.front() + config_.window <= index) {
      entries.pop_front();
    }
  };
  expire(window.events);
  expire(window.uncorrectable);

  std::vector<Decision> decisions;
  const auto decide = [&](IsolationAction action, const char* rule) {
    if (action == IsolationAction::kNone) return;
    decisions.push_back({action, rule, event.layer, event.detail, event.stamp});
  };

  // escalation-exhausted: the layer's own ladder gave up — isolate now.
  if (event.severity == Severity::kExhausted) {
    decide(isolation_for(event.layer), "escalation-exhausted");
  }
  // repeated-uncorrectable: the layer keeps detecting what it cannot fix —
  // its state is no longer trustworthy, restore from a checkpoint.
  if (window.uncorrectable.size() >= config_.uncorrectable_threshold) {
    decide(IsolationAction::kRollback, "repeated-uncorrectable");
    window.uncorrectable.clear();
  }
  // rate-over-window: an event storm from one layer — isolate it before the
  // storm drowns everyone else's detections.
  if (window.events.size() >= config_.rate_threshold) {
    decide(isolation_for(event.layer), "rate-over-window");
    window.events.clear();
  }
  return decisions;
}

}  // namespace hermes::fdir
