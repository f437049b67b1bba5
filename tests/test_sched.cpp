#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/endurance.hpp"
#include "fault/fault.hpp"
#include "fault/sweep.hpp"
#include "sched/deque.hpp"
#include "sched/sched.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::sched {
namespace {

using namespace std::chrono_literals;

Task plain(std::function<void()> fn, Priority priority = Priority::Normal,
           std::optional<Deadline> deadline = std::nullopt,
           bool child = false) {
  Task task;
  task.fn = std::move(fn);
  task.priority = priority;
  task.deadline = deadline;
  task.child = child;
  return task;
}

/// Pushes a marker-recording task; `log` collects execution order.
Task marker(std::vector<std::string>& log, std::string name,
            Priority priority = Priority::Normal,
            std::optional<Deadline> deadline = std::nullopt,
            bool child = false) {
  return plain([&log, name] { log.push_back(name); }, priority, deadline,
               child);
}

/// Drains a deque with `pop` (owner view) into a name list.
std::vector<std::string> drain_pop(WorkDeque& deque,
                                   std::vector<std::string>& log) {
  while (auto task = deque.pop()) {
    task->fn();
  }
  return log;
}

// ---- WorkDeque ordering -----------------------------------------------------

TEST(SchedDeque, PriorityBandsDrainHighFirst) {
  WorkDeque deque;
  std::vector<std::string> log;
  for (auto* name : {"low", "high", "normal"}) {
    auto task = marker(log, name, parse_priority(name));
    ASSERT_TRUE(deque.push(task));
  }
  EXPECT_EQ(drain_pop(deque, log),
            (std::vector<std::string>{"high", "normal", "low"}));
}

TEST(SchedDeque, ExternalTasksKeepFifoArrivalOrderForOwnerAndThief) {
  std::vector<std::string> log;
  {
    WorkDeque deque;
    for (auto* name : {"a", "b", "c"}) {
      auto task = marker(log, name);
      ASSERT_TRUE(deque.push(task));
    }
    drain_pop(deque, log);
  }
  {
    WorkDeque deque;
    for (auto* name : {"d", "e", "f"}) {
      auto task = marker(log, name);
      ASSERT_TRUE(deque.push(task));
    }
    while (auto task = deque.steal()) {
      task->fn();
    }
  }
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));
}

TEST(SchedDeque, ChildrenPopLifoButStealFifo) {
  std::vector<std::string> log;
  WorkDeque deque;
  for (auto* name : {"first", "second", "third"}) {
    auto task = marker(log, name, Priority::Normal, std::nullopt,
                       /*child=*/true);
    ASSERT_TRUE(deque.push(task));
  }
  auto stolen = deque.steal();  // thief: the oldest fork
  ASSERT_TRUE(stolen.has_value());
  stolen->fn();
  drain_pop(deque, log);  // owner: freshest first
  EXPECT_EQ(log, (std::vector<std::string>{"first", "third", "second"}));
}

TEST(SchedDeque, DeadlinesRunEarliestFirstAndBeatUndatedInBand) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> log;
  WorkDeque deque;
  auto undated = marker(log, "undated");
  auto late = marker(log, "late", Priority::Normal, now + 200ms);
  auto soon = marker(log, "soon", Priority::Normal, now + 50ms);
  ASSERT_TRUE(deque.push(undated));
  ASSERT_TRUE(deque.push(late));
  ASSERT_TRUE(deque.push(soon));
  EXPECT_EQ(drain_pop(deque, log),
            (std::vector<std::string>{"soon", "late", "undated"}));
}

TEST(SchedDeque, HigherBandBeatsEarlierDeadline) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> log;
  WorkDeque deque;
  auto soon_low = marker(log, "soon-low", Priority::Low, now + 1ms);
  auto high = marker(log, "high", Priority::High);
  ASSERT_TRUE(deque.push(soon_low));
  ASSERT_TRUE(deque.push(high));
  EXPECT_EQ(drain_pop(deque, log),
            (std::vector<std::string>{"high", "soon-low"}));
}

TEST(SchedDeque, BoundedPushRefusesWhenFullAndLeavesTaskIntact) {
  WorkDeque deque(2);
  std::vector<std::string> log;
  auto a = marker(log, "a");
  auto b = marker(log, "b");
  auto c = marker(log, "c");
  ASSERT_TRUE(deque.push(a));
  ASSERT_TRUE(deque.push(b));
  EXPECT_FALSE(deque.push(c));
  ASSERT_TRUE(c.fn != nullptr);  // refused push must not consume the closure
  EXPECT_EQ(deque.size(), 2u);
  ASSERT_TRUE(deque.pop().has_value());
  ASSERT_TRUE(deque.push(c));  // room again
  EXPECT_EQ(deque.size(), 2u);
}

TEST(SchedDeque, ParsePriorityRejectsUnknownNames) {
  EXPECT_EQ(parse_priority("low"), Priority::Low);
  EXPECT_EQ(parse_priority("normal"), Priority::Normal);
  EXPECT_EQ(parse_priority("high"), Priority::High);
  EXPECT_THROW((void)parse_priority("urgent"), Error);
  EXPECT_THROW((void)parse_priority(""), Error);
}

// ---- Scheduler --------------------------------------------------------------

TEST(SchedScheduler, RunsEverySubmittedTask) {
  Scheduler scheduler({.workers = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.submit(plain([&] { ran.fetch_add(1); }));
  }
  scheduler.shutdown();
  EXPECT_EQ(ran.load(), 100);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.by_priority[static_cast<std::size_t>(Priority::Normal)],
            100u);
}

TEST(SchedScheduler, SubmitAfterShutdownThrows) {
  Scheduler scheduler({.workers = 1});
  scheduler.shutdown();
  EXPECT_THROW(scheduler.submit(plain([] {})), Error);
  scheduler.shutdown();  // idempotent
}

TEST(SchedScheduler, SingleWorkerHonorsPriorityThenDeadlineOrder) {
  Scheduler scheduler({.workers = 1});
  // Pin the only worker inside a task so the queue builds up behind it.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  bool pinned = false;
  scheduler.submit(plain([&] {
    std::unique_lock lock(mutex);
    pinned = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  }));
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return pinned; });
  }

  std::vector<std::string> log;  // only the worker thread writes it
  const auto now = std::chrono::steady_clock::now();
  scheduler.submit(marker(log, "low", Priority::Low));
  scheduler.submit(marker(log, "normal-late", Priority::Normal, now + 500ms));
  scheduler.submit(marker(log, "normal"));
  scheduler.submit(marker(log, "normal-soon", Priority::Normal, now + 100ms));
  scheduler.submit(marker(log, "high", Priority::High));
  {
    const std::scoped_lock lock(mutex);
    release = true;
  }
  cv.notify_all();
  scheduler.shutdown();
  EXPECT_EQ(log, (std::vector<std::string>{"high", "normal-soon",
                                           "normal-late", "normal", "low"}));
}

TEST(SchedScheduler, DryWorkerStealsFromLoadedVictim) {
  Scheduler scheduler({.workers = 2});
  // Pin both workers, pile tasks behind them (round-robined over both
  // deques), then release only one pin: the free worker must steal the
  // blocked worker's backlog to finish the batch.
  std::mutex mutex;
  std::condition_variable cv;
  int pinned = 0;
  int release = 0;
  const auto pin = [&] {
    std::unique_lock lock(mutex);
    const int self = ++pinned;
    cv.notify_all();
    cv.wait(lock, [&] { return release >= self; });
  };
  scheduler.submit(plain(pin));
  scheduler.submit(plain(pin));
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return pinned == 2; });
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 40; ++i) {
    scheduler.submit(plain([&] { ran.fetch_add(1); }));
  }
  {
    const std::scoped_lock lock(mutex);
    release = 1;  // worker A stays pinned; worker B drains everything
  }
  cv.notify_all();
  while (ran.load() < 40) {
    std::this_thread::yield();
  }
  EXPECT_GT(scheduler.stats().stolen, 0u);
  {
    const std::scoped_lock lock(mutex);
    release = 2;
  }
  cv.notify_all();
  scheduler.shutdown();
  EXPECT_EQ(scheduler.stats().executed, 42u);
}

TEST(SchedScheduler, IdleWorkersParkAndWakeForNewWork) {
  Scheduler scheduler({.workers = 2});
  std::atomic<int> ran{0};
  scheduler.submit(plain([&] { ran.fetch_add(1); }));
  while (ran.load() < 1) {
    std::this_thread::yield();
  }
  // The worker has nothing left: it must park rather than spin. Parking is
  // asynchronous, so poll (bounded) for the gauge.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (scheduler.stats().parks == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(scheduler.stats().parks, 0u);
  // And a fresh submission must wake it.
  scheduler.submit(plain([&] { ran.fetch_add(1); }));
  const auto wake_deadline = std::chrono::steady_clock::now() + 5s;
  while (ran.load() < 2 && std::chrono::steady_clock::now() < wake_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 2);
  scheduler.shutdown();
}

TEST(SchedScheduler, TinyDequesSpillToInjectorWithoutLosingTasks) {
  Scheduler scheduler({.workers = 2, .deque_capacity = 2});
  std::mutex mutex;
  std::condition_variable cv;
  int pinned = 0;
  bool release = false;
  const auto pin = [&] {
    std::unique_lock lock(mutex);
    ++pinned;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  scheduler.submit(plain(pin));
  scheduler.submit(plain(pin));
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return pinned == 2; });
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {  // 50 tasks into 2×2 deque slots
    scheduler.submit(plain([&] { ran.fetch_add(1); }));
  }
  EXPECT_GT(scheduler.stats().overflows, 0u);
  {
    const std::scoped_lock lock(mutex);
    release = true;
  }
  cv.notify_all();
  scheduler.shutdown();
  EXPECT_EQ(ran.load(), 50);
}

TEST(SchedScheduler, CurrentIsNullOffPoolAndSelfOnWorkers) {
  EXPECT_EQ(Scheduler::current(), nullptr);
  Scheduler scheduler({.workers = 1});
  std::atomic<Scheduler*> seen{nullptr};
  scheduler.submit(plain([&] { seen.store(Scheduler::current()); }));
  scheduler.shutdown();
  EXPECT_EQ(seen.load(), &scheduler);
  EXPECT_EQ(Scheduler::current(), nullptr);
}

// ---- fork-join --------------------------------------------------------------

TEST(SchedForkJoin, OffPoolRunChildrenExecutesInlineInOrder) {
  Scheduler scheduler({.workers = 2});
  std::vector<int> order;  // serial inline: safe to mutate unguarded
  std::vector<std::function<void()>> children;
  for (int i = 0; i < 5; ++i) {
    children.push_back([&order, i] { order.push_back(i); });
  }
  scheduler.run_children(std::move(children));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  // Inline children still count as forked/executed: the gauge tracks
  // run_children traffic, not which thread happened to run it.
  EXPECT_EQ(scheduler.stats().forked, 5u);
  EXPECT_EQ(scheduler.stats().executed, 5u);
}

TEST(SchedForkJoin, OnPoolChildrenAllRunAndParentHelps) {
  Scheduler scheduler({.workers = 2});
  std::atomic<int> ran{0};
  std::atomic<bool> joined{false};
  scheduler.submit(plain([&] {
    std::vector<std::function<void()>> children;
    for (int i = 0; i < 32; ++i) {
      children.push_back([&ran] { ran.fetch_add(1); });
    }
    Scheduler::current()->run_children(std::move(children), Priority::High);
    joined.store(ran.load() == 32);  // join implies every child completed
  }));
  scheduler.shutdown();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_TRUE(joined.load());
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.forked, 32u);
  EXPECT_EQ(stats.by_priority[static_cast<std::size_t>(Priority::High)], 32u);
}

TEST(SchedForkJoin, FirstChildExceptionIsRethrownAtTheJoin) {
  Scheduler scheduler({.workers = 2});
  // Off-pool inline path.
  {
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> children;
    children.push_back([&] { ran.fetch_add(1); });
    children.push_back([] { throw Error("child failed"); });
    children.push_back([&] { ran.fetch_add(1); });
    EXPECT_THROW(scheduler.run_children(std::move(children)), Error);
    EXPECT_EQ(ran.load(), 2);  // siblings still ran
  }
  // On-pool fork-join path: the parent task observes the rethrow.
  std::atomic<bool> caught{false};
  std::atomic<int> ran{0};
  scheduler.submit(plain([&] {
    std::vector<std::function<void()>> children;
    children.push_back([&] { ran.fetch_add(1); });
    children.push_back([] { throw Error("child failed"); });
    children.push_back([&] { ran.fetch_add(1); });
    try {
      Scheduler::current()->run_children(std::move(children));
    } catch (const Error&) {
      caught.store(true);
    }
  }));
  scheduler.shutdown();
  EXPECT_TRUE(caught.load());
  EXPECT_EQ(ran.load(), 2);
}

// ---- parallel fault sweeps --------------------------------------------------

TEST(SchedSweep, ParallelSweepOnPoolMatchesSerialSweepExactly) {
  const auto graph = test::random_mig(61, 8, 60, 4);
  const auto reference = graph.cleanup();
  const auto report = core::run_pipeline(
      graph, core::PipelineConfig::parse("naive"), "t");
  fault::SweepSpec spec;
  spec.enabled = true;
  spec.trials = 16;
  spec.runs = 64;
  spec.seed = 99;
  spec.profile.logic.stuck_rate = 0.01;
  spec.profile.memory.stuck_rate = 0.01;
  spec.profile.endurance = 60;

  // Serial reference: no scheduler on this thread.
  ASSERT_EQ(Scheduler::current(), nullptr);
  const auto serial = fault::run_sweep(report.program, reference, spec);

  // The same sweep from inside a worker forks the trials as children across
  // the pool; the distribution must be byte-identical.
  Scheduler scheduler({.workers = 3});
  std::optional<fault::LifetimeDistribution> parallel;
  scheduler.submit(plain([&] {
    parallel = fault::run_sweep(report.program, reference, spec);
  }));
  scheduler.shutdown();
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(*parallel, serial);
  EXPECT_EQ(scheduler.stats().forked, 16u);
}

}  // namespace
}  // namespace rlim::sched
