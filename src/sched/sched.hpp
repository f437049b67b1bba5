#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/deque.hpp"
#include "util/rng.hpp"

namespace rlim::sched {

struct SchedulerOptions {
  /// Worker ceiling; 0 selects std::thread::hardware_concurrency(). Threads
  /// spawn lazily — one per submitted task up to the ceiling — so a two-task
  /// workload never pays for a 64-thread pool.
  unsigned workers = 0;
  /// Per-worker deque bound; a push that finds every deque full spills to
  /// the unbounded shared injector (counted in SchedulerStats::overflows).
  /// Bounding the hot deques keeps any one worker's backlog — and therefore
  /// the worst-case steal scan — short under heavy mixed traffic.
  std::size_t deque_capacity = 1024;
};

/// Monotonic counters + gauges; a consistent snapshot via stats().
struct SchedulerStats {
  std::uint64_t submitted = 0;    ///< external tasks accepted
  std::uint64_t executed = 0;     ///< tasks run to completion (incl. children)
  std::uint64_t stolen = 0;       ///< tasks taken from another worker's deque
  std::uint64_t parks = 0;        ///< times a worker went to sleep
  std::uint64_t overflows = 0;    ///< pushes that spilled to the injector
  std::uint64_t forked = 0;       ///< child tasks forked by run_children()
  std::uint64_t queue_depth = 0;  ///< gauge: tasks queued right now
  /// Tasks accepted per priority band (submitted + forked), indexed by
  /// static_cast<size_t>(Priority).
  std::uint64_t by_priority[kPriorityBands] = {0, 0, 0};
};

/// Work-stealing task scheduler (the design is ponyc's
/// libponyrt/sched/scheduler.h, re-idiomized onto mutexes): each worker owns
/// a bounded priority deque it pushes and pops LIFO; when dry it drains the
/// shared injector, then steals FIFO from randomly ordered victims; when a
/// full scan finds nothing it backs off exponentially and finally parks on a
/// condition variable. A sleeping-worker count gates the wake notification,
/// so steady-state submission with hot workers never touches the park lock
/// and idle workers never spin.
///
/// Tasks are plain closures; they must not throw (run_children() is the
/// exception-aware layer). Queued tasks the owner no longer wants are
/// expected to be tombstoned by the caller (flow::Service marks its Task
/// state) — the scheduler itself runs everything it accepted, including
/// during shutdown drain.
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  /// Calls shutdown().
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues one task; returns immediately. Round-robins across the worker
  /// deques (with priority/deadline ordering inside each), spilling to the
  /// shared injector when all are full. Throws after shutdown().
  void submit(Task task);

  /// Fork-join: runs every closure as a child task and returns when all have
  /// completed. Called on a worker thread, children are pushed LIFO onto the
  /// caller's own deque (thieves may take them FIFO) and the parent *helps*
  /// — it keeps executing tasks, its own and stolen, while any child is
  /// outstanding, and never parks. Called off-pool, the children simply run
  /// inline. The first child exception is rethrown at the join; remaining
  /// children still run.
  void run_children(std::vector<std::function<void()>> children,
                    Priority priority = Priority::Normal);

  /// Stops the workers and joins them. Everything already queued is drained
  /// first (cheap when the owner tombstoned its tasks); nothing new is
  /// accepted. Idempotent.
  void shutdown();

  [[nodiscard]] SchedulerStats stats() const;
  [[nodiscard]] unsigned workers() const { return target_workers_; }

  /// The scheduler executing the calling thread, or nullptr off-pool. How
  /// nested parallelism (fault-sweep trials inside a compile job) finds its
  /// way back to the pool without threading a handle through every layer.
  [[nodiscard]] static Scheduler* current();

 private:
  struct Worker {
    explicit Worker(std::size_t capacity, std::uint64_t seed)
        : deque(capacity), rng(seed) {}
    WorkDeque deque;
    util::Xoshiro256 rng;  ///< victim order; touched only by the owner thread
  };

  void worker_loop(unsigned index);
  /// One full scan: own deque (workers only), injector, then every victim in
  /// random order. `rng` is the scanning thread's private stream.
  [[nodiscard]] std::optional<Task> find_task(Worker* self,
                                              util::Xoshiro256& rng);
  void enqueue(Task task);
  void ensure_worker();
  void wake_one();
  void wake_all();

  SchedulerOptions options_;
  unsigned target_workers_ = 1;

  /// Fixed at construction (stealing scans this without coordination).
  std::vector<std::unique_ptr<Worker>> workers_;
  WorkDeque injector_;  ///< unbounded: overflow of the worker deques

  std::atomic<std::uint64_t> rr_next_{0};  ///< round-robin submission cursor
  /// Tasks queued anywhere (deques + injector). The park/wake handshake:
  /// submit increments it *before* waking; a parking worker re-checks it
  /// *after* raising sleeping_ under the park lock — one side always sees
  /// the other (both are seq_cst), so no task is ever stranded with every
  /// worker asleep.
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::uint64_t> sleeping_{0};
  std::atomic<bool> stopping_{false};

  std::mutex park_mutex_;
  std::condition_variable park_cv_;

  std::mutex threads_mutex_;
  std::vector<std::thread> threads_;
  std::atomic<unsigned> spawned_{0};  ///< == threads_.size(); lock-free gate

  // Stats (relaxed: they order nothing).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> forked_{0};
  std::atomic<std::uint64_t> by_priority_[kPriorityBands]{};
};

}  // namespace rlim::sched
