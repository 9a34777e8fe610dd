#include "common/threadpool.hpp"

#include <algorithm>

namespace hermes {

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::participate(Job& job) {
  try {
    while (!job.failed.load(std::memory_order_relaxed) && (*job.pull)()) {
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!job.error) job.error = std::current_exception();
    job.failed.store(true, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = current_job_;
      if (job == nullptr) continue;  // woke after the job already retired
      ++job->registered;
    }
    participate(*job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --job->registered;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};  // next index to claim
  run_queue([&] {
    const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) return false;
    body(index);
    return true;
  });
}

void ThreadPool::run_queue(const std::function<bool()>& pull) {
  if (workers_.empty()) {
    while (pull()) {
    }
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mutex_);
  Job job;
  job.pull = &pull;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();

  // The submitting thread drains alongside the workers.
  participate(job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.registered == 0; });
    current_job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

unsigned ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;
  return std::min(hw - 1, 15u);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_workers());
  return pool;
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(count, body);
}

}  // namespace hermes
