// Multi-tenant compile service: a weighted-fair job queue over the
// threadpool, draining source- and netlist-level compile jobs through the
// content-addressed FlowCache.
//
// Scheduling: classic weighted fair queueing per tenant. Each tenant t with
// weight w_t owns a FIFO of pending jobs; the dispatcher always pops the
// tenant minimizing (served_t + 1) / w_t, compared exactly by integer
// cross-multiplication, ties broken by tenant name. The pop sequence — and
// therefore every job's dispatch_index — depends only on the submitted set,
// never on worker count or timing, so a pooled drain dispatches in the same
// order the serial one does.
//
// Budgets and cancellation: every job charges deterministic cycle costs per
// stage (svc/job.hpp) and stops with kDeadlineExceeded once the budget is
// reached, keeping the partial stage trace. cancel() marks a job; the mark
// is honored between stages and at the mid-points inside the schedule
// stage, and an aborted compute never inserts into the cache.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "svc/cache.hpp"
#include "svc/job.hpp"

namespace hermes::svc {

struct ServiceOptions {
  /// Worker threads of the service's own pool; 0 drains inline — the serial
  /// reference the soak suite fingerprints pooled runs against.
  unsigned workers = 0;
  std::size_t cache_bytes = FlowCache::kDefaultByteBudget;
  /// Characterization grid cached (and shared) per target.
  hls::SweepConfig sweep;
  /// Arms svc.cache.{entry.rot,evict.storm} on the cache.
  fault::FaultInjector* injector = nullptr;
  /// Test observability: invoked as each stage of a job begins, after the
  /// cancellation/budget check — a hook that cancels its own job therefore
  /// exercises the mid-stage abort path, not the pre-stage check.
  std::function<void(std::uint64_t job, const CompileRequest&, Stage)>
      stage_hook;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;  ///< any other non-ok outcome
};

struct TenantStats {
  std::string tenant;
  unsigned weight = 1;
  std::uint64_t submitted = 0;
  std::uint64_t dispatched = 0;
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions options = {});

  /// Weights apply from the next pop; unknown tenants default to weight 1.
  void set_tenant_weight(const std::string& tenant, unsigned weight);

  /// Enqueues a job; returns its id. Jobs run on the next drain().
  std::uint64_t submit(CompileRequest request);

  /// Marks a job cancelled. True if it had not finished yet; the mark takes
  /// effect at the job's next stage boundary (or before it starts).
  bool cancel(std::uint64_t job_id);

  /// Runs every pending job to completion over the service pool (inline
  /// when workers == 0). Deterministic dispatch order; see file comment.
  void drain();

  /// Outcome of a finished job (call after drain()).
  [[nodiscard]] const CompileOutcome& outcome(std::uint64_t job_id) const;

  /// submit() all, drain(), and return outcomes in submission order.
  std::vector<CompileOutcome> run(std::vector<CompileRequest> requests);

  FlowCache& cache() { return cache_; }
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::vector<TenantStats> tenant_stats() const;

 private:
  struct JobRecord {
    CompileRequest request;
    std::atomic<bool> cancelled{false};
    CompileOutcome outcome;
    bool done = false;
  };
  struct Tenant {
    unsigned weight = 1;
    std::uint64_t served = 0;  ///< jobs dispatched (drives the WFQ key)
    std::deque<std::uint64_t> pending;
    std::uint64_t submitted = 0;
    std::uint64_t dispatched = 0;
  };

  bool run_next();  ///< pop + execute one job; false when the queue is empty
  std::uint64_t pop_wfq_locked();  ///< kNoJob when nothing is pending
  void execute(JobRecord& record);

  /// One stage of one job: cancellation/budget gate, stage_hook, cache fetch
  /// (computing on miss), failure status and cycle charge. Returns null when
  /// the job must stop; `record.outcome.status` then says why.
  template <typename T>
  std::shared_ptr<const T> run_stage(
      JobRecord& record, Stage stage, std::uint64_t key,
      const std::function<Result<T>()>& compute,
      const std::function<std::vector<std::uint8_t>(const T&)>& image_of,
      const std::function<std::uint64_t(const T&)>& cold_cycles);

  static constexpr std::uint64_t kNoJob = ~0ULL;

  ServiceOptions options_;
  FlowCache cache_;
  ThreadPool pool_;
  ThreadPool sweep_pool_{0};  ///< characterizations run inline per worker

  mutable std::mutex mutex_;
  std::map<std::string, Tenant> tenants_;  ///< ordered: deterministic ties
  std::vector<std::unique_ptr<JobRecord>> jobs_;
  unsigned dispatch_counter_ = 0;
  ServiceStats stats_;
};

}  // namespace hermes::svc
