// Fixed-size thread pool with a parallel_for helper.
//
// Built for the embarrassingly-parallel outer loops of this codebase — SEU
// campaign replicas, Eucalyptus characterization grids, placement seeds —
// where every iteration is independent and writes only its own result slot.
// Determinism contract: parallel_for(count, body) calls body(i) exactly once
// for each i in [0, count); callers derive any randomness from the index
// (e.g. per-replica RNG seeds), so results are bit-identical for any worker
// count, including zero (fully inline execution).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hermes {

class ThreadPool {
 public:
  /// Spawns exactly `workers` worker threads. The submitting thread also
  /// participates in every parallel_for, so a pool with 0 workers runs
  /// everything inline (the serial reference).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute work: workers + the submitting thread.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(0) .. body(count - 1), each exactly once, distributed over the
  /// workers and the calling thread; returns when all are done. Not
  /// reentrant: body must not itself call parallel_for on the same pool.
  /// If a body throws, indices nobody has claimed yet are skipped, and once
  /// every participant has left, the first exception is rethrown here.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Dynamic-queue variant for work whose extent is not known up front (the
  /// compile service's weighted-fair job queue): every worker plus the
  /// calling thread repeatedly invokes `pull` until it returns false, then
  /// returns once no participant is still inside a pull. `pull` must be
  /// thread-safe (pop-under-your-own-mutex-then-run); with zero workers it
  /// runs fully inline, the serial reference. Not reentrant, and `pull` must
  /// not re-enter this pool. If a pull throws, every participant stops
  /// pulling, and once all have left, the first exception is rethrown here.
  void run_queue(const std::function<bool()>& pull);

  /// Process-wide pool sized to the hardware (hardware_concurrency - 1
  /// workers, capped at 15).
  static ThreadPool& global();

  /// Worker count global() would use on this machine.
  static unsigned default_workers();

 private:
  /// Per-submission state, stack-allocated by run_queue. Workers register
  /// (under the pool mutex) before pulling and deregister after, so
  /// run_queue never returns — and the Job never dies — while any worker
  /// still holds a pointer to it.
  struct Job {
    const std::function<bool()>* pull = nullptr;
    std::atomic<bool> failed{false};  ///< a pull threw: stop pulling
    std::exception_ptr error;         ///< the first exception (mutex)
    unsigned registered = 0;          ///< workers inside the pull loop (mutex)
  };

  /// Pulls until `job` is drained or failed; records the first exception a
  /// pull throws instead of letting it leave this thread.
  void participate(Job& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  ///< serializes concurrent parallel_for calls

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  Job* current_job_ = nullptr;
};

/// parallel_for on the process-wide pool.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace hermes
