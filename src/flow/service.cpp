#include "flow/service.hpp"

#include <algorithm>

#include "store/disk_store.hpp"
#include "util/error.hpp"

namespace rlim::flow {

namespace {
constexpr const char* kCancelledMessage = "cancelled before execution";
}  // namespace

/// One submitted job and everything needed to finish it. Guarded by the
/// Service mutex except for `job`, which is read by the executing worker
/// while unlocked (no one else touches it after submission).
struct Service::Task {
  enum class State {
    Pending,  ///< queued (or attached to a pending primary), cancellable
    Running,  ///< picked up by a worker — runs to completion
    Done,     ///< result available (executed, coalesced, or cancelled)
  };

  Ticket ticket = 0;
  Job job;
  State state = State::Pending;
  bool cancelled = false;
  JobResult result;
  std::shared_ptr<BatchHandle::Progress> batch;
  /// Scheduling hints, frozen from the Job at submit time (the deadline
  /// made absolute); may strengthen later when a stronger duplicate
  /// coalesces into this task (escalate_locked).
  sched::Priority priority = sched::Priority::Normal;
  std::optional<sched::Deadline> deadline;
  /// Registered as the coalescing primary under `key`.
  bool registered = false;
  DupKey key;
  /// Duplicates fulfilled from this task's result.
  std::vector<TaskPtr> followers;
};

// ---- BatchHandle -----------------------------------------------------------

std::size_t BatchHandle::completed() const {
  if (progress_ == nullptr) {
    return 0;
  }
  const std::scoped_lock lock(progress_->mutex);
  return progress_->done;
}

void BatchHandle::wait() const {
  if (progress_ == nullptr) {
    return;
  }
  std::unique_lock lock(progress_->mutex);
  progress_->cv.wait(lock, [&] { return progress_->done >= tickets_.size(); });
}

// ---- Service lifecycle -----------------------------------------------------

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    cache_.attach_store(
        std::make_shared<store::DiskStore>(options_.cache_dir));
  }
  sched::SchedulerOptions sched_options;
  sched_options.workers = options_.jobs;
  sched_options.deque_capacity = options_.deque_capacity;
  sched_options.single_queue = options_.single_queue;
  // Worker threads spawn lazily inside the scheduler, one per enqueued job
  // up to the ceiling — the synchronous façade's small batches keep the old
  // min(workers, job_count) thread cost instead of paying for a full pool.
  scheduler_ = std::make_unique<sched::Scheduler>(sched_options);
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  std::vector<Ticket> finished;
  {
    const std::scoped_lock lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      cancel_all_pending_locked(finished);
      done_cv_.notify_all();
    }
  }
  notify_finished(finished);
  // The cancel drain tombstoned every queued task, so the scheduler's
  // shutdown drain costs one Pending check per closure; running jobs
  // finish normally before their workers exit. Never joined under mutex_ —
  // workers take it in scheduler_run()/finish().
  scheduler_->shutdown();
}

// ---- submission ------------------------------------------------------------

std::optional<Service::DupKey> Service::duplicate_key(const Job& job,
                                                      bool may_build) const {
  if (!options_.coalesce || job.source == nullptr) {
    return std::nullopt;
  }
  try {
    std::optional<std::uint64_t> fingerprint;
    if (may_build) {
      fingerprint = job.source->fingerprint();
    } else {
      fingerprint = job.source->ready_fingerprint();
    }
    if (!fingerprint) {
      return std::nullopt;
    }
    return DupKey{*fingerprint, job.config.normalized().canonical_key()};
  } catch (const std::exception&) {
    // Unloadable source or unregistered policy: not coalescable — the job
    // executes normally and captures the failure in its own result.
    return std::nullopt;
  }
}

Ticket Service::submit(Job job) {
  return submit_batch({std::move(job)}).tickets().front();
}

BatchHandle Service::submit_batch(std::vector<Job> jobs) {
  BatchHandle handle;
  handle.progress_ = std::make_shared<BatchHandle::Progress>();
  handle.tickets_.reserve(jobs.size());
  for (auto& job : jobs) {
    // Opportunistic submit-time coalescing: only when the fingerprint is
    // already known (in-memory Source, or a netlist some earlier job
    // loaded) — submit() must never block on graph construction.
    const auto key = duplicate_key(job, /*may_build=*/false);

    auto task = std::make_shared<Task>();
    task->priority = job.priority;
    if (job.deadline) {
      // Relative budget → absolute point, frozen at submission: two jobs
      // with the same budget race in arrival order, as they should.
      task->deadline = std::chrono::steady_clock::now() + *job.deadline;
    }
    task->job = std::move(job);
    task->batch = handle.progress_;

    const std::scoped_lock lock(mutex_);
    require(!stopping_, "flow: submit after Service shutdown");
    task->ticket = next_ticket_++;
    tasks_.emplace(task->ticket, task);
    ++stats_.submitted;
    handle.tickets_.push_back(task->ticket);

    bool queued = true;
    if (key) {
      const auto it = inflight_.find(*key);
      if (it != inflight_.end()) {
        it->second->followers.push_back(task);
        ++stats_.coalesced;
        escalate_locked(it->second, task);
        queued = false;
      } else {
        inflight_.emplace(*key, task);
        task->registered = true;
        task->key = *key;
      }
    }
    if (queued) {
      enqueue_locked(task);
    }
  }
  return handle;
}

void Service::enqueue_locked(const TaskPtr& task) {
  // The closure holds the TaskPtr: a task stays alive while any queue entry
  // references it, however the ticket side resolves. Lock order is strictly
  // Service::mutex_ → scheduler internals; the scheduler never calls back
  // while holding its own locks.
  scheduler_->submit({[this, task] { scheduler_run(task); },
                      task->priority, task->deadline});
}

void Service::escalate_locked(const TaskPtr& primary, const TaskPtr& follower) {
  if (primary->state != Task::State::Pending) {
    return;  // running or done — dequeue order no longer matters
  }
  bool improved = false;
  if (follower->priority > primary->priority) {
    primary->priority = follower->priority;
    improved = true;
  }
  if (follower->deadline &&
      (!primary->deadline || *follower->deadline < *primary->deadline)) {
    primary->deadline = follower->deadline;
    improved = true;
  }
  if (improved) {
    // Re-queue under the stronger hint. The earlier queue entry becomes a
    // tombstone: whichever closure claims the task first flips it to
    // Running, the other sees non-Pending in scheduler_run() and drops out.
    enqueue_locked(primary);
  }
}

// ---- worker side -----------------------------------------------------------

void Service::scheduler_run(const TaskPtr& task) {
  {
    const std::scoped_lock lock(mutex_);
    if (task->state != Task::State::Pending) {
      return;  // tombstone: cancelled, escalated-and-claimed, or re-queued
    }
    task->state = Task::State::Running;
  }
  // Thread-lifetime scratch: the disk tier's read/write buffers are
  // recycled across every job this scheduler worker serves.
  thread_local store::IoScratch scratch;
  run_task(task, &scratch);
}

void Service::run_task(const TaskPtr& task, store::IoScratch* scratch) {
  if (options_.coalesce && !task->registered) {
    // Dequeue-time coalescing: computing the key may build the graph, so it
    // runs on the worker (outside the lock) where that work belongs anyway.
    if (const auto key = duplicate_key(task->job, /*may_build=*/true)) {
      const std::scoped_lock lock(mutex_);
      const auto it = inflight_.find(*key);
      if (it != inflight_.end()) {
        // A primary with this key is pending or running: attach instead of
        // blocking this worker on the same computation.
        it->second->followers.push_back(task);
        ++stats_.coalesced;
        escalate_locked(it->second, task);
        return;
      }
      inflight_.emplace(*key, task);
      task->registered = true;
      task->key = *key;
    }
  }
  finish(task, execute(task->job, scratch));
}

JobResult Service::execute(const Job& job, store::IoScratch* scratch) {
  JobResult result;
  try {
    require(job.source != nullptr, "flow: job without a source");
    const auto& config = job.config;
    if (options_.cache_programs) {
      // Two-level path: repeated (fingerprint, canonical config) pairs skip
      // compilation entirely; the cached report is label-agnostic, so patch
      // in this job's label.
      auto entry = cache_.compiled(*job.source, config, scratch);
      result.prepared = std::move(entry.prepared);
      result.rewrite_stats = entry.rewrite_stats;
      result.report = *entry.report;
      result.report.benchmark = job.display_label();
      return result;
    }
    if (config.rewrite.key == "none") {
      // The paper's naive baseline: share the source's graph exactly as
      // constructed (no cleanup pass, unlike the registered "none" flow).
      auto entry = passthrough_rewrite(*job.source);
      result.prepared = std::move(entry.graph);
      result.rewrite_stats = entry.stats;
    } else {
      auto entry = cache_.rewrite(*job.source, config.rewrite, scratch);
      result.prepared = std::move(entry.graph);
      result.rewrite_stats = entry.stats;
    }
    result.report =
        core::compile_prepared(*result.prepared, config, job.display_label(),
                               job.source->original().num_gates());
  } catch (const std::exception& error) {
    result.error = error.what();
    if (result.error.empty()) {
      result.error = "unknown error";
    }
  }
  return result;
}

void Service::finish(const TaskPtr& task, JobResult result) {
  std::vector<Ticket> finished;
  {
    const std::scoped_lock lock(mutex_);
    if (task->registered) {
      inflight_.erase(task->key);
      task->registered = false;
    }
    task->result = std::move(result);
    task->state = Task::State::Done;
    ++stats_.executed;
    complete_locked(task, finished);
    for (const auto& follower : task->followers) {
      if (follower->state == Task::State::Done) {
        continue;  // cancelled while attached
      }
      follower->result = task->result;
      if (follower->result.ok()) {
        // Same contract as a program-cache hit: shared artifacts, own label.
        follower->result.report.benchmark = follower->job.display_label();
      }
      follower->state = Task::State::Done;
      complete_locked(follower, finished);
    }
    task->followers.clear();
    done_cv_.notify_all();
  }
  notify_finished(finished);
}

void Service::complete_locked(const TaskPtr& task,
                              std::vector<Ticket>& finished) {
  ++stats_.completed;
  if (task->cancelled) {
    ++stats_.cancelled;
  }
  if (task->batch != nullptr) {
    const std::scoped_lock progress_lock(task->batch->mutex);
    ++task->batch->done;
    task->batch->cv.notify_all();
  }
  if (options_.on_finished) {
    finished.push_back(task->ticket);
  }
}

void Service::notify_finished(const std::vector<Ticket>& finished) const {
  if (!options_.on_finished) {
    return;
  }
  for (const auto ticket : finished) {
    options_.on_finished(ticket);
  }
}

// ---- cancellation ----------------------------------------------------------

void Service::cancel_locked(const TaskPtr& task,
                            std::vector<Ticket>& finished) {
  task->cancelled = true;
  task->state = Task::State::Done;
  task->result = JobResult{};
  task->result.error = kCancelledMessage;
  if (task->registered) {
    inflight_.erase(task->key);
    task->registered = false;
  }
  // Followers were waiting on this task's execution, not cancelled
  // themselves: re-queue them. The first one dequeued re-registers as the
  // new primary and the rest re-coalesce behind it. A dequeue-time follower
  // carries state Running (its worker moved on after attaching) — flip it
  // back to Pending or the scheduler_run claim-check would drop the ticket
  // forever.
  for (auto& follower : task->followers) {
    if (follower->state == Task::State::Done) {
      continue;  // cancelled while attached — already fulfilled
    }
    follower->state = Task::State::Pending;
    enqueue_locked(follower);
  }
  task->followers.clear();
  complete_locked(task, finished);
}

bool Service::cancel(Ticket ticket) {
  std::vector<Ticket> finished;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = tasks_.find(ticket);
    if (it == tasks_.end() || it->second->state != Task::State::Pending) {
      return false;
    }
    cancel_locked(it->second, finished);
    done_cv_.notify_all();
  }
  notify_finished(finished);
  return true;
}

std::size_t Service::cancel_all_pending_locked(std::vector<Ticket>& finished) {
  // To a fixpoint: cancelling a primary re-queues its followers as pending,
  // and those must be swept up by the same drain whatever the map order.
  std::size_t count = 0;
  bool again = true;
  while (again) {
    again = false;
    for (auto& [ticket, task] : tasks_) {
      if (task->state == Task::State::Pending) {
        cancel_locked(task, finished);
        ++count;
        again = true;
      }
    }
  }
  // Everything the drain touched is Done now; the matching queue entries
  // are tombstones the scheduler workers drop at their Pending check.
  return count;
}

std::size_t Service::cancel_pending() {
  std::vector<Ticket> finished;
  std::size_t count = 0;
  {
    const std::scoped_lock lock(mutex_);
    count = cancel_all_pending_locked(finished);
    if (count > 0) {
      done_cv_.notify_all();
    }
  }
  notify_finished(finished);
  return count;
}

// ---- collection ------------------------------------------------------------

JobResult Service::wait(Ticket ticket) {
  std::unique_lock lock(mutex_);
  const auto it = tasks_.find(ticket);
  require(it != tasks_.end(),
          "flow: unknown or already-collected ticket " +
              std::to_string(ticket));
  const auto task = it->second;
  done_cv_.wait(lock, [&] { return task->state == Task::State::Done; });
  tasks_.erase(ticket);
  return std::move(task->result);
}

std::optional<JobResult> Service::try_get(Ticket ticket) {
  const std::scoped_lock lock(mutex_);
  const auto it = tasks_.find(ticket);
  require(it != tasks_.end(),
          "flow: unknown or already-collected ticket " +
              std::to_string(ticket));
  if (it->second->state != Task::State::Done) {
    return std::nullopt;
  }
  const auto task = it->second;
  tasks_.erase(it);
  return std::move(task->result);
}

std::vector<JobResult> Service::collect(const BatchHandle& batch) {
  std::vector<JobResult> results;
  results.reserve(batch.tickets().size());
  for (const auto ticket : batch.tickets()) {
    results.push_back(wait(ticket));
  }
  return results;
}

ServiceStats Service::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

sched::SchedulerStats Service::scheduler_stats() const {
  return scheduler_->stats();
}

}  // namespace rlim::flow
