#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/cache.hpp"
#include "flow/job.hpp"
#include "sched/sched.hpp"

namespace rlim::store {
struct IoScratch;
}

namespace rlim::flow {

/// Handle of one submitted Job. Tickets are unique per Service instance and
/// never reused; they are plain integers so a future network front-end can
/// ship them across a process boundary verbatim.
using Ticket = std::uint64_t;

struct ServiceOptions {
  /// Worker-pool ceiling; 0 selects std::thread::hardware_concurrency().
  /// Threads spawn lazily (one per enqueued job, up to the ceiling) and
  /// live until shutdown().
  unsigned jobs = 0;
  /// Per-worker deque bound of the work-stealing scheduler; pushes that find
  /// every deque full spill to its unbounded shared injector queue.
  std::size_t deque_capacity = 1024;
  /// Benchmark baseline: funnel every job through one shared queue instead
  /// of per-worker deques + stealing (the pre-scheduler convoy shape).
  /// BM_ServeLoad flips this for an apples-to-apples comparison; production
  /// code leaves it false.
  bool single_queue = false;
  /// Memoize compiled programs on (fingerprint, canonical config key).
  /// Disable to measure cold compilation cost; rewritten graphs stay shared
  /// through the cache's rewrite level either way.
  bool cache_programs = true;
  /// Directory of the persistent store::DiskStore backing the cache; empty
  /// leaves the disk tier off. Same hermeticity contract as RunnerOptions:
  /// the Service never consults the environment.
  std::string cache_dir{};
  /// Coalesce duplicate submissions on (graph fingerprint, canonical config
  /// key): a duplicate of a pending or running job never occupies a worker —
  /// it is fulfilled from the primary's result with its own label patched
  /// in. Results are identical to a program-cache hit; the difference is
  /// accounting (coalesced jobs never touch the cache counters) and that no
  /// worker blocks on the duplicate. The Runner façade turns this off to
  /// keep the historical cache-counter semantics observable.
  bool coalesce = true;
  /// Completion hook: invoked once per ticket — after its result became
  /// collectable — with no Service lock held, from whichever thread finished
  /// it (a worker, a cancelling caller, or shutdown()). The hook may call
  /// try_get()/wait() on the ticket; it must not block for long (it runs on
  /// the worker's time) and must tolerate tickets it never saw submitted
  /// (none are generated, but ordering with concurrent collectors is the
  /// hook's problem: a racing wait() may have collected the ticket first).
  /// This is how the socket front-end turns job completion into an event
  /// instead of a poll.
  std::function<void(Ticket)> on_finished{};
};

/// Monotonic per-Service counters (all since construction).
struct ServiceStats {
  std::size_t submitted = 0;  ///< tickets issued
  std::size_t completed = 0;  ///< tickets finished (any way)
  std::size_t executed = 0;   ///< jobs that actually ran the pipeline
  std::size_t coalesced = 0;  ///< duplicates fulfilled from a primary
  std::size_t cancelled = 0;  ///< tickets cancelled before execution
};

/// Progress handle of one submit_batch() call. Cheap to copy (shared state);
/// valid only while the issuing Service is alive. Progress counts every
/// finished ticket of the batch — executed, coalesced, or cancelled.
class BatchHandle {
public:
  BatchHandle() = default;

  [[nodiscard]] std::size_t size() const { return tickets_.size(); }
  [[nodiscard]] std::size_t completed() const;
  [[nodiscard]] bool done() const { return completed() == size(); }
  /// Blocks until every ticket of the batch has finished.
  void wait() const;

  /// The batch's tickets, in submission order — collect results with
  /// Service::wait()/try_get(), or all at once with Service::collect().
  [[nodiscard]] const std::vector<Ticket>& tickets() const { return tickets_; }

private:
  friend class Service;
  struct Progress {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    std::size_t done = 0;
  };

  std::vector<Ticket> tickets_;
  std::shared_ptr<Progress> progress_;
};

/// Asynchronous execution service over the endurance pipeline: jobs are
/// submitted incrementally, run on a work-stealing scheduler
/// (sched::Scheduler — per-worker priority deques, so Job::priority and
/// Job::deadline bias which queued job runs next) above the shared
/// two-level PipelineCache (+ optional disk store), and are awaited — in any
/// order — by ticket. This is the execution engine behind flow::Runner (a
/// synchronous façade over submit_batch + collect) and the CLI `rlim serve`
/// front-end; the socket front-end (net::Server) submits decoded flow::wire
/// frames here.
///
/// Priority interacts with coalescing in one deliberate way: when a
/// duplicate submission attaches to a *pending* primary with a weaker
/// priority (or later deadline), the primary inherits the stronger hint and
/// is re-queued under it — a high-priority duplicate must not wait behind
/// the low-priority twin it coalesced into.
///
/// Determinism: execution order is unspecified, but every result is a pure
/// function of its job, so collecting a batch in ticket order yields
/// byte-identical reports for any worker count. Job failures are captured in
/// JobResult::error, never thrown from wait().
///
/// Results are collect-once: wait()/try_get() hand the result out and drop
/// the ticket, so a long-lived service stays memory-bounded however many
/// jobs stream through. Waiting on a collected (or never-issued) ticket
/// throws rlim::Error.
class Service {
public:
  /// Validates options and starts the worker pool. Throws rlim::Error when
  /// cache_dir is unusable.
  explicit Service(ServiceOptions options = {});
  /// Calls shutdown() — cancels pending work, finishes running jobs, joins.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Enqueues one job; returns immediately. Throws only after shutdown().
  Ticket submit(Job job);
  /// Enqueues a batch and returns a progress handle (tickets in job order).
  BatchHandle submit_batch(std::vector<Job> jobs);

  /// Blocks until the ticket finishes and hands its result out (collect-
  /// once). Throws rlim::Error for unknown or already-collected tickets.
  [[nodiscard]] JobResult wait(Ticket ticket);
  /// Non-blocking wait(): nullopt while the ticket is still in flight.
  [[nodiscard]] std::optional<JobResult> try_get(Ticket ticket);
  /// Waits for the whole batch and collects results in submission order.
  [[nodiscard]] std::vector<JobResult> collect(const BatchHandle& batch);

  /// Cooperative cancellation: succeeds only while the ticket is still
  /// pending (not picked up by a worker). A cancelled ticket finishes with
  /// JobResult::error == "cancelled before execution". Returns false for
  /// running, finished, or unknown tickets — a job that already started
  /// always runs to completion.
  bool cancel(Ticket ticket);
  /// Drain-all: cancels every pending ticket; returns how many.
  std::size_t cancel_pending();

  /// Stops accepting work, cancels everything still pending, lets running
  /// jobs finish, and joins the workers. Idempotent; uncollected results
  /// stay collectable. Called by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  /// Scheduler-side counters (steals, parks, queue depth, priority mix) —
  /// the serving-shape telemetry behind the wire StatsReply gauges.
  [[nodiscard]] sched::SchedulerStats scheduler_stats() const;
  /// The configured worker-pool ceiling (threads spawn lazily, one per
  /// enqueued job, up to this many — a two-job batch never pays for a
  /// 64-thread pool).
  [[nodiscard]] unsigned workers() const { return scheduler_->workers(); }
  [[nodiscard]] const PipelineCache& cache() const { return cache_; }

private:
  struct Task;
  using TaskPtr = std::shared_ptr<Task>;
  /// Coalescing key: (graph fingerprint, canonical config key).
  using DupKey = std::pair<std::uint64_t, std::string>;

  /// Entry point of every scheduled closure: claims the task (Pending →
  /// Running; a tombstoned — cancelled or re-queued — task is dropped here)
  /// and runs it with the thread's recycled I/O scratch.
  void scheduler_run(const TaskPtr& task);
  /// Hands one claimable task to the scheduler under the task's priority /
  /// deadline. Caller holds mutex_.
  void enqueue_locked(const TaskPtr& task);
  /// Lets a *pending* coalescing primary inherit a stronger follower hint
  /// (higher priority or earlier deadline) and re-queues it under the new
  /// ordering; the stale queue entry tombstones via the Pending check.
  void escalate_locked(const TaskPtr& primary, const TaskPtr& follower);
  /// `scratch` is the calling worker's recyclable I/O buffer set, threaded
  /// down to the disk tier so steady-state serve traffic reuses the same
  /// buffers instead of allocating per job.
  void run_task(const TaskPtr& task, store::IoScratch* scratch);
  /// Runs the pipeline for one job (the former Runner::execute).
  [[nodiscard]] JobResult execute(const Job& job, store::IoScratch* scratch);
  void finish(const TaskPtr& task, JobResult result);
  /// `finished` collects tickets to report through options_.on_finished once
  /// the lock is released (the hook must never run under mutex_).
  void complete_locked(const TaskPtr& task, std::vector<Ticket>& finished);
  void cancel_locked(const TaskPtr& task, std::vector<Ticket>& finished);
  /// Cancels every pending task to a fixpoint (cancelling a coalescing
  /// primary re-queues its followers as pending, which must be caught too).
  std::size_t cancel_all_pending_locked(std::vector<Ticket>& finished);
  /// Runs the on_finished hook (if any) for every collected ticket.
  void notify_finished(const std::vector<Ticket>& finished) const;
  [[nodiscard]] std::optional<DupKey> duplicate_key(const Job& job,
                                                    bool may_build) const;

  ServiceOptions options_;
  PipelineCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< wakes wait()ers
  std::unordered_map<Ticket, TaskPtr> tasks_;
  std::map<DupKey, TaskPtr> inflight_;  ///< coalescing primaries
  Ticket next_ticket_ = 1;
  bool stopping_ = false;
  ServiceStats stats_;

  /// The worker pool + queues. Last member: constructed after (and torn
  /// down before) everything its closures may touch.
  std::unique_ptr<sched::Scheduler> scheduler_;
};

}  // namespace rlim::flow
