#include "sched/sched.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "util/error.hpp"

namespace rlim::sched {

namespace {

/// Failed full scans a worker tolerates (yield, then escalating micro-sleeps)
/// before it pays the park-lock round trip. ~0.5 ms of patience: long enough
/// that a serve-path burst never parks between jobs, short enough that an
/// idle pool costs nothing measurable.
constexpr unsigned kIdleSpinLimit = 8;

/// RNG seed of the victim-selection streams (per worker, decorrelated via
/// util::mix_seed). Victim order affects performance, never results.
constexpr std::uint64_t kStealSeed = 0x5eedull;

/// The executing scheduler/worker of this thread; null off-pool. File-scope
/// so Scheduler::current() and run_children() agree on the same slots.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local void* tls_worker = nullptr;

void idle_backoff(unsigned idle) {
  if (idle <= 2) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(
        std::chrono::microseconds(1u << std::min(idle, 10u)));
  }
}

}  // namespace

Scheduler* Scheduler::current() { return tls_scheduler; }

Scheduler::Scheduler(SchedulerOptions options) : options_(std::move(options)) {
  target_workers_ = options_.workers;
  if (target_workers_ == 0) {
    target_workers_ = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(target_workers_);
  for (unsigned index = 0; index < target_workers_; ++index) {
    workers_.push_back(std::make_unique<Worker>(
        options_.deque_capacity, util::mix_seed(kStealSeed, index)));
  }
  threads_.reserve(target_workers_);
  // Threads spawn lazily in ensure_worker(); the deques exist up front so
  // submission can distribute work without coordinating with spawning
  // (anything placed on a not-yet-started worker's deque is stolen).
}

Scheduler::~Scheduler() { shutdown(); }

// ---- submission ------------------------------------------------------------

void Scheduler::submit(Task task) {
  require(!stopping_.load(), "sched: submit after shutdown");
  require(task.fn != nullptr, "sched: task without a function");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  by_priority_[static_cast<std::size_t>(task.priority)].fetch_add(
      1, std::memory_order_relaxed);
  enqueue(std::move(task));
}

void Scheduler::enqueue(Task task) {
  // queued_ rises before the push (and before the wake check): a worker
  // concurrently deciding to park re-reads queued_ after raising sleeping_,
  // so one of the two sides always observes the other.
  queued_.fetch_add(1);
  const auto count = workers_.size();
  const auto start = rr_next_.fetch_add(1, std::memory_order_relaxed) % count;
  for (std::size_t i = 0; i < count; ++i) {
    if (workers_[(start + i) % count]->deque.push(task)) {
      ensure_worker();
      wake_one();
      return;
    }
  }
  // Every deque is at capacity: spill to the unbounded injector.
  overflows_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = injector_.push(task);
  (void)pushed;  // the injector is unbounded
  ensure_worker();
  wake_one();
}

void Scheduler::ensure_worker() {
  if (stopping_.load() ||
      spawned_.load(std::memory_order_relaxed) >= target_workers_) {
    return;
  }
  const std::scoped_lock lock(threads_mutex_);
  if (stopping_.load() || threads_.size() >= target_workers_) {
    return;
  }
  const auto index = static_cast<unsigned>(threads_.size());
  threads_.emplace_back([this, index] { worker_loop(index); });
  spawned_.store(static_cast<unsigned>(threads_.size()),
                 std::memory_order_relaxed);
}

void Scheduler::wake_one() {
  if (sleeping_.load() == 0) {
    return;  // steady-state fast path: no park lock touched
  }
  const std::scoped_lock lock(park_mutex_);
  park_cv_.notify_one();
}

void Scheduler::wake_all() {
  const std::scoped_lock lock(park_mutex_);
  park_cv_.notify_all();
}

// ---- worker side -----------------------------------------------------------

std::optional<Task> Scheduler::find_task(Worker* self, util::Xoshiro256& rng) {
  if (self != nullptr) {
    if (auto task = self->deque.pop()) {
      queued_.fetch_sub(1);
      return task;
    }
  }
  if (auto task = injector_.steal()) {
    queued_.fetch_sub(1);
    return task;
  }
  if (const auto count = workers_.size(); count > 1) {
    // Random rotation: thieves spread across victims instead of convoying
    // on worker 0. A full pass visits everyone, so nothing is stranded.
    const std::size_t start = static_cast<std::size_t>(rng.below(count));
    for (std::size_t i = 0; i < count; ++i) {
      auto* victim = workers_[(start + i) % count].get();
      if (victim == self) {
        continue;
      }
      if (auto task = victim->deque.steal()) {
        queued_.fetch_sub(1);
        stolen_.fetch_add(1, std::memory_order_relaxed);
        return task;
      }
    }
  }
  return std::nullopt;
}

void Scheduler::worker_loop(unsigned index) {
  auto* self = workers_[index].get();
  tls_scheduler = this;
  tls_worker = self;
  unsigned idle = 0;
  while (true) {
    if (auto task = find_task(self, self->rng)) {
      idle = 0;
      task->fn();
      executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (stopping_.load()) {
      return;  // drained: find_task() above came up empty
    }
    if (idle < kIdleSpinLimit) {
      idle_backoff(++idle);
      continue;
    }
    std::unique_lock lock(park_mutex_);
    sleeping_.fetch_add(1);
    if (queued_.load() > 0 || stopping_.load()) {
      // Work (or shutdown) raced in between the scan and the lock.
      sleeping_.fetch_sub(1);
      idle = 0;
      continue;
    }
    parks_.fetch_add(1, std::memory_order_relaxed);
    park_cv_.wait(lock, [&] { return queued_.load() > 0 || stopping_.load(); });
    sleeping_.fetch_sub(1);
    idle = 0;
  }
}

// ---- fork-join -------------------------------------------------------------

void Scheduler::run_children(std::vector<std::function<void()>> children,
                             Priority priority) {
  if (children.empty()) {
    return;
  }
  struct Join {
    std::atomic<std::size_t> remaining{0};
    std::mutex mutex;
    std::exception_ptr error;
  };
  const auto join = std::make_shared<Join>();
  join->remaining.store(children.size());
  const auto wrap = [&join](std::function<void()> fn) {
    return [join, fn = std::move(fn)] {
      try {
        fn();
      } catch (...) {
        const std::scoped_lock lock(join->mutex);
        if (join->error == nullptr) {
          join->error = std::current_exception();
        }
      }
      join->remaining.fetch_sub(1);
    };
  };

  auto* self =
      tls_scheduler == this ? static_cast<Worker*>(tls_worker) : nullptr;
  if (self == nullptr) {
    // Off-pool caller (or a worker of some other scheduler): run inline,
    // serially, with the same first-exception-rethrown contract.
    for (auto& child : children) {
      forked_.fetch_add(1, std::memory_order_relaxed);
      by_priority_[static_cast<std::size_t>(priority)].fetch_add(
          1, std::memory_order_relaxed);
      executed_.fetch_add(1, std::memory_order_relaxed);
      wrap(std::move(child))();
    }
  } else {
    for (auto& child : children) {
      forked_.fetch_add(1, std::memory_order_relaxed);
      by_priority_[static_cast<std::size_t>(priority)].fetch_add(
          1, std::memory_order_relaxed);
      Task task{wrap(std::move(child)), priority, std::nullopt,
                /*child=*/true};
      queued_.fetch_add(1);
      if (self->deque.push(task)) {
        // LIFO on the parent's own deque: the parent pops its freshest fork
        // first while thieves take the oldest — the classic fork-join shape.
        ensure_worker();
        wake_one();
      } else {
        // The deque is at capacity: run in place. Bounded memory beats
        // parallelism, and the parent was about to execute children anyway.
        queued_.fetch_sub(1);
        overflows_.fetch_add(1, std::memory_order_relaxed);
        executed_.fetch_add(1, std::memory_order_relaxed);
        task.fn();
      }
    }
    // Helping join: keep executing tasks (own, injected, stolen — including
    // children another worker pushed back) until every child completed. The
    // parent never parks here; on a one-worker pool it *is* the pool.
    unsigned idle = 0;
    while (join->remaining.load() != 0) {
      if (auto task = find_task(self, self->rng)) {
        idle = 0;
        task->fn();
        executed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (++idle <= 16) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
  if (join->error != nullptr) {
    std::rethrow_exception(join->error);
  }
}

// ---- lifecycle -------------------------------------------------------------

void Scheduler::shutdown() {
  stopping_.store(true);
  wake_all();
  std::vector<std::thread> threads;
  {
    const std::scoped_lock lock(threads_mutex_);
    threads.swap(threads_);
  }
  for (auto& thread : threads) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  stats.parks = parks_.load(std::memory_order_relaxed);
  stats.overflows = overflows_.load(std::memory_order_relaxed);
  stats.forked = forked_.load(std::memory_order_relaxed);
  stats.queue_depth = queued_.load();
  for (std::size_t band = 0; band < kPriorityBands; ++band) {
    stats.by_priority[band] =
        by_priority_[band].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace rlim::sched
