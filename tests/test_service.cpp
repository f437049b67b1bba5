#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "benchmarks/arithmetic.hpp"
#include "benchmarks/suite.hpp"
#include "flow/runner.hpp"
#include "flow/service.hpp"
#include "flow/suite.hpp"
#include "sched/deque.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::flow {
namespace {

/// Controllable choke point: a Source whose graph construction blocks until
/// the test opens the gate. Lets the tests pin a worker mid-execution
/// deterministically (the only way to distinguish "pending" from "running"
/// without sleeps).
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void release() {
    {
      const std::scoped_lock lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  /// Blocks until `count` builders are inside the gate.
  void await_entered(int count = 1) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return entered >= count; });
  }
  void pass() {
    std::unique_lock lock(mutex);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
};

SourcePtr gated_source(const std::shared_ptr<Gate>& gate,
                       const std::string& name = "gated") {
  bench::BenchmarkSpec spec;
  spec.name = name;
  spec.pis = 8;
  spec.pos = 5;
  spec.build = [gate] {
    gate->pass();
    return bench::make_adder(4);
  };
  return Source::benchmark(spec);
}

std::vector<Job> strategy_sweep(const std::vector<SourcePtr>& sources) {
  std::vector<Job> jobs;
  for (const auto& source : sources) {
    for (const auto strategy : paper_strategies()) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  return jobs;
}

std::string render(const std::vector<JobResult>& results, ReportFormat format) {
  Report doc;
  doc.title = "sweep";
  doc.columns = {"benchmark", "#I", "#R", "min", "max", "STDEV"};
  for (const auto& result : results) {
    doc.add_row({result.report.benchmark,
                 std::to_string(result.report.instructions),
                 std::to_string(result.report.rrams),
                 std::to_string(result.report.writes.min),
                 std::to_string(result.report.writes.max),
                 std::to_string(result.report.writes.stdev)});
  }
  std::ostringstream os;
  make_sink(format)->write(doc, os);
  return os.str();
}

// ---- submission and collection ---------------------------------------------

TEST(FlowService, SubmitWaitMatchesRunJob) {
  const Job job{Source::graph(bench::make_adder(6), "adder6"),
                core::make_config(core::Strategy::FullEndurance),
                {}};
  const auto direct = run_job(job);
  Service service({.jobs = 2});
  const auto result = service.wait(service.submit(job));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.report.benchmark, direct.report.benchmark);
  EXPECT_EQ(result.report.instructions, direct.report.instructions);
  EXPECT_EQ(result.report.rrams, direct.report.rrams);
  EXPECT_EQ(result.report.writes.stdev, direct.report.writes.stdev);
}

TEST(FlowService, TicketsCollectableInAnyOrder) {
  Service service({.jobs = 2});
  std::vector<Ticket> tickets;
  for (const unsigned bits : {2u, 3u, 4u, 5u}) {
    tickets.push_back(service.submit({Source::graph(bench::make_adder(bits),
                                                    "adder" +
                                                        std::to_string(bits)),
                                      core::make_config(core::Strategy::Naive),
                                      {}}));
  }
  // Collect back to front: completion order must not constrain wait order.
  for (std::size_t i = tickets.size(); i-- > 0;) {
    const auto result = service.wait(tickets[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.report.benchmark, "adder" + std::to_string(i + 2));
  }
}

TEST(FlowService, CollectedReportsByteIdenticalAcrossWorkerCounts) {
  // The acceptance property of the redesign: a mini-suite sweep through the
  // async Service yields byte-identical collected reports for any worker
  // count — and matches the synchronous Runner façade bit for bit.
  const auto& specs = bench::mini_suite();
  std::vector<SourcePtr> sources;
  for (std::size_t i = 0; i < 3; ++i) {
    sources.push_back(Source::benchmark(specs[i]));
  }
  const auto jobs = strategy_sweep(sources);

  Service serial({.jobs = 1});
  Service parallel({.jobs = 8});
  const auto serial_results = serial.collect(serial.submit_batch(jobs));
  const auto parallel_results = parallel.collect(parallel.submit_batch(jobs));
  throw_on_error(serial_results);
  throw_on_error(parallel_results);

  Runner runner({.jobs = 4});
  const auto runner_results = runner.run(jobs);
  throw_on_error(runner_results);

  for (const auto format :
       {ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json}) {
    EXPECT_EQ(render(serial_results, format), render(parallel_results, format))
        << to_string(format);
    EXPECT_EQ(render(serial_results, format), render(runner_results, format))
        << to_string(format);
  }
}

TEST(FlowService, ByteIdenticalAcrossWorkerCountsUnderRandomPriorities) {
  // Scheduling hints shape execution order, never results: the same sweep
  // with randomized priorities and deadlines must stay byte-identical
  // between one worker and eight.
  const auto& specs = bench::mini_suite();
  std::vector<SourcePtr> sources;
  for (std::size_t i = 0; i < 3; ++i) {
    sources.push_back(Source::benchmark(specs[i]));
  }
  auto jobs = strategy_sweep(sources);
  util::Xoshiro256 rng(2026);
  for (auto& job : jobs) {
    job.priority =
        static_cast<sched::Priority>(rng.below(sched::kPriorityBands));
    if (rng.below(3) == 0) {
      job.deadline = std::chrono::milliseconds(5 + rng.below(100));
    }
  }

  Service serial({.jobs = 1});
  Service parallel({.jobs = 8});
  const auto serial_results = serial.collect(serial.submit_batch(jobs));
  const auto parallel_results = parallel.collect(parallel.submit_batch(jobs));
  throw_on_error(serial_results);
  throw_on_error(parallel_results);

  for (const auto format :
       {ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json}) {
    EXPECT_EQ(render(serial_results, format), render(parallel_results, format))
        << to_string(format);
  }
}

TEST(FlowService, TryGetIsNonBlocking) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto ticket =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();
  EXPECT_EQ(service.try_get(ticket), std::nullopt);
  gate->release();
  const auto result = service.wait(ticket);
  EXPECT_TRUE(result.ok()) << result.error;
}

TEST(FlowService, ResultsAreCollectOnce) {
  Service service({.jobs = 1});
  const auto ticket = service.submit({Source::graph(bench::make_adder(4), "a"),
                                      core::make_config(core::Strategy::Naive),
                                      {}});
  EXPECT_TRUE(service.wait(ticket).ok());
  EXPECT_THROW(static_cast<void>(service.wait(ticket)), Error);
  EXPECT_THROW(static_cast<void>(service.try_get(ticket)), Error);
  EXPECT_THROW(static_cast<void>(service.wait(9999)), Error);
}

TEST(FlowService, ErrorsAreCapturedPerTicket) {
  Service service({.jobs = 2});
  const auto bad = service.submit({Source::netlist("/nonexistent/x.mig"),
                                   core::make_config(core::Strategy::Naive),
                                   {}});
  const auto good = service.submit({Source::graph(bench::make_adder(4), "ok"),
                                    core::make_config(core::Strategy::Naive),
                                    {}});
  EXPECT_FALSE(service.wait(bad).ok());
  EXPECT_TRUE(service.wait(good).ok());
}

// ---- batch handles ----------------------------------------------------------

TEST(FlowService, BatchHandleTracksProgress) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  std::vector<Job> jobs;
  jobs.push_back(
      {gated_source(gate), core::make_config(core::Strategy::Naive), {}});
  for (const unsigned bits : {3u, 4u}) {
    jobs.push_back({Source::graph(bench::make_adder(bits),
                                  "adder" + std::to_string(bits)),
                    core::make_config(core::Strategy::Naive),
                    {}});
  }
  const auto batch = service.submit_batch(jobs);
  EXPECT_EQ(batch.size(), 3u);
  gate->await_entered();
  // The single worker is pinned inside job 0: nothing can have finished.
  EXPECT_EQ(batch.completed(), 0u);
  EXPECT_FALSE(batch.done());
  gate->release();
  batch.wait();
  EXPECT_EQ(batch.completed(), 3u);
  EXPECT_TRUE(batch.done());
  const auto results = service.collect(batch);
  ASSERT_EQ(results.size(), 3u);
  throw_on_error(results);
  EXPECT_EQ(results[1].report.benchmark, "adder3");
}

TEST(FlowService, DefaultBatchHandleIsDone) {
  const BatchHandle handle;
  EXPECT_EQ(handle.size(), 0u);
  EXPECT_TRUE(handle.done());
  handle.wait();  // must not block
}

// ---- cancellation -----------------------------------------------------------

TEST(FlowService, CancelBeforeExecutionSucceeds) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto running =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();
  const auto victim = service.submit({Source::graph(bench::make_adder(4), "v"),
                                      core::make_config(core::Strategy::Naive),
                                      {}});
  EXPECT_TRUE(service.cancel(victim));
  EXPECT_FALSE(service.cancel(victim)) << "already finished (cancelled)";
  gate->release();
  const auto cancelled = service.wait(victim);
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.error, "cancelled before execution");
  EXPECT_TRUE(service.wait(running).ok());
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(FlowService, CancelMidExecutionFailsAndJobCompletes) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto ticket =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();  // the worker is provably inside the job now
  EXPECT_FALSE(service.cancel(ticket));
  gate->release();
  const auto result = service.wait(ticket);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(service.stats().cancelled, 0u);
}

TEST(FlowService, CancelPendingDrainsTheQueue) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto running =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();
  std::vector<Job> jobs;
  for (const unsigned bits : {3u, 4u, 5u}) {
    jobs.push_back({Source::graph(bench::make_adder(bits),
                                  "adder" + std::to_string(bits)),
                    core::make_config(core::Strategy::Naive),
                    {}});
  }
  const auto batch = service.submit_batch(jobs);
  EXPECT_EQ(service.cancel_pending(), 3u);
  EXPECT_TRUE(batch.done()) << "cancellation completes the batch";
  gate->release();
  EXPECT_TRUE(service.wait(running).ok());
  for (const auto& result : service.collect(batch)) {
    EXPECT_EQ(result.error, "cancelled before execution");
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
}

TEST(FlowService, ShutdownCancelsPendingAndKeepsResults) {
  const auto gate = std::make_shared<Gate>();
  auto service = std::make_unique<Service>(ServiceOptions{.jobs = 1});
  const auto running =
      service->submit({gated_source(gate),
                       core::make_config(core::Strategy::Naive),
                       {}});
  gate->await_entered();
  const auto pending =
      service->submit({Source::graph(bench::make_adder(4), "p"),
                       core::make_config(core::Strategy::Naive),
                       {}});
  std::thread stopper([&] { service->shutdown(); });
  // shutdown() cancels pending work immediately (before joining), so this
  // wait returns while the gated job is still running.
  const auto cancelled = service->wait(pending);
  EXPECT_EQ(cancelled.error, "cancelled before execution");
  gate->release();
  stopper.join();
  // The running job finished normally and stays collectable after shutdown.
  EXPECT_TRUE(service->wait(running).ok());
  EXPECT_THROW(static_cast<void>(service->submit(
                   {Source::graph(bench::make_adder(4), "late"),
                    core::make_config(core::Strategy::Naive),
                    {}})),
               Error);
  service->shutdown();  // idempotent
}

// ---- duplicate coalescing ----------------------------------------------------

TEST(FlowService, DuplicateSubmissionsCoalesceWhilePending) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto blocker =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();

  // Same graph instance + same config = same (fingerprint, canonical key):
  // the second submission attaches to the first instead of queueing.
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto primary = service.submit({source, config, "first"});
  const auto duplicate = service.submit({source, config, "second"});
  EXPECT_EQ(service.stats().coalesced, 1u)
      << "the duplicate must coalesce at submit time";

  gate->release();
  const auto first = service.wait(primary);
  const auto second = service.wait(duplicate);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Shared artifacts, per-job labels — the program-cache-hit contract.
  EXPECT_EQ(first.prepared, second.prepared);
  EXPECT_EQ(first.report.instructions, second.report.instructions);
  EXPECT_EQ(first.report.benchmark, "first");
  EXPECT_EQ(second.report.benchmark, "second");
  // The duplicate never reached the cache: one compile, zero cache hits.
  EXPECT_EQ(service.cache().program_misses(), 2u);  // blocker + primary
  EXPECT_EQ(service.cache().program_hits(), 0u);
  EXPECT_TRUE(service.wait(blocker).ok());
  EXPECT_EQ(service.stats().executed, 2u);
}

TEST(FlowService, CoalescingEscalatesPrimaryPriority) {
  // A High-priority duplicate attaching to a Low-priority pending primary
  // must drag the primary up with it: after escalation the primary runs
  // ahead of Normal work that was queued between them.
  const auto gate = std::make_shared<Gate>();
  std::mutex order_mutex;
  std::vector<Ticket> finish_order;
  ServiceOptions options;
  options.jobs = 1;
  options.on_finished = [&](Ticket ticket) {
    const std::scoped_lock lock(order_mutex);
    finish_order.push_back(ticket);
  };
  Service service(options);
  const auto blocker =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();  // the lone worker is pinned; queue order decides

  const auto source = Source::graph(bench::make_adder(8), "adder8");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  Job slow{source, config, "slow-lane"};
  slow.priority = sched::Priority::Low;
  const auto primary = service.submit(slow);

  const auto filler =
      service.submit({Source::graph(bench::make_adder(6), "adder6"),
                      core::make_config(core::Strategy::Naive),
                      "mid"});  // Normal: beats Low until escalation

  Job urgent{source, config, "urgent"};
  urgent.priority = sched::Priority::High;
  const auto duplicate = service.submit(urgent);
  EXPECT_EQ(service.stats().coalesced, 1u)
      << "the urgent twin must coalesce, not queue";

  gate->release();
  ASSERT_TRUE(service.wait(primary).ok());
  ASSERT_TRUE(service.wait(duplicate).ok());
  ASSERT_TRUE(service.wait(filler).ok());
  ASSERT_TRUE(service.wait(blocker).ok());

  const std::scoped_lock lock(order_mutex);
  const auto position = [&](Ticket ticket) {
    return std::find(finish_order.begin(), finish_order.end(), ticket) -
           finish_order.begin();
  };
  EXPECT_LT(position(primary), position(filler))
      << "escalated primary must finish before the Normal-priority filler";
  EXPECT_EQ(service.stats().executed, 3u);  // blocker + primary + filler
}

TEST(FlowService, CancellingThePrimaryRequeuesItsFollowers) {
  const auto gate = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto blocker =
      service.submit({gated_source(gate),
                      core::make_config(core::Strategy::Naive),
                      {}});
  gate->await_entered();

  const auto source = Source::graph(bench::make_adder(8), "adder8");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto primary = service.submit({source, config, "first"});
  const auto follower = service.submit({source, config, "second"});
  EXPECT_EQ(service.stats().coalesced, 1u);

  // Cancelling the primary must not take its followers down with it.
  EXPECT_TRUE(service.cancel(primary));
  gate->release();
  EXPECT_EQ(service.wait(primary).error, "cancelled before execution");
  const auto result = service.wait(follower);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.report.benchmark, "second");
  EXPECT_TRUE(service.wait(blocker).ok());
}

TEST(FlowService, CancellingPrimaryRequeuesDequeueTimeFollowers) {
  // The harder variant of the test above: the follower attaches at dequeue
  // time (its fingerprint is unknown at submit), so it carries state
  // Running when the primary is cancelled — it must still be re-queued and
  // executed, not dropped by the queue's tombstone check.
  const auto gate1 = std::make_shared<Gate>();
  const auto gate2 = std::make_shared<Gate>();
  Service service({.jobs = 1});
  const auto naive = core::make_config(core::Strategy::Naive);
  const auto config = core::make_config(core::Strategy::FullEndurance);

  const auto blocker1 = service.submit({gated_source(gate1, "b1"), naive, {}});
  gate1->await_entered();

  // Follower-to-be: same graph as the primary, but generator-built, so its
  // key is only computable on a worker.
  bench::BenchmarkSpec generated;
  generated.name = "generated";
  generated.build = [] { return bench::make_adder(8); };
  const auto follower =
      service.submit({Source::benchmark(generated), config, "follower"});
  const auto blocker2 = service.submit({gated_source(gate2, "b2"), naive, {}});
  const auto primary = service.submit(
      {Source::graph(bench::make_adder(8), "adder8"), config, "primary"});
  EXPECT_EQ(service.stats().coalesced, 0u)
      << "the generator source must not be coalescable at submit time";

  // Let the single worker process the follower (which attaches to the
  // still-pending primary) and pin itself inside blocker2.
  gate1->release();
  gate2->await_entered();
  EXPECT_EQ(service.stats().coalesced, 1u);

  EXPECT_TRUE(service.cancel(primary));
  gate2->release();
  EXPECT_EQ(service.wait(primary).error, "cancelled before execution");
  const auto result = service.wait(follower);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.report.benchmark, "follower");
  EXPECT_TRUE(service.wait(blocker1).ok());
  EXPECT_TRUE(service.wait(blocker2).ok());
}

TEST(FlowService, CoalescingStressKeepsAccountsConsistent) {
  // Many duplicates of two (source, config) pairs under real concurrency:
  // whatever interleaving happens, every ticket resolves with the right
  // label and executed + coalesced adds up.
  constexpr std::size_t kJobs = 48;
  Service service({.jobs = 4});
  const auto a = Source::graph(bench::make_adder(8), "a");
  const auto b = Source::graph(bench::make_adder(9), "b");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < kJobs; ++i) {
    tickets.push_back(service.submit(
        {i % 2 == 0 ? a : b, config, "job" + std::to_string(i)}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto result = service.wait(tickets[i]);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.report.benchmark, "job" + std::to_string(i));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed, kJobs);
  EXPECT_EQ(stats.executed + stats.coalesced, kJobs);
  EXPECT_EQ(service.cache().program_misses(), 2u);
}

TEST(FlowService, RunnerFacadeKeepsCoalescingOff) {
  // The façade's contract: duplicate jobs keep flowing through the cache so
  // the historical hit/miss counters stay observable.
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  Runner runner({.jobs = 2});
  throw_on_error(runner.run({{source, config, {}}, {source, config, {}}}));
  EXPECT_EQ(runner.cache().program_misses(), 1u);
  EXPECT_EQ(runner.cache().program_hits(), 1u);
}

// ---- configuration -----------------------------------------------------------

TEST(FlowService, WorkerCountDefaultsToHardwareConcurrency) {
  Service defaulted;
  EXPECT_GE(defaulted.workers(), 1u);
  Service fixed({.jobs = 3});
  EXPECT_EQ(fixed.workers(), 3u);
}

TEST(FlowService, OnFinishedFiresOncePerTicketAndAllowsCollection) {
  std::mutex mutex;
  std::vector<Ticket> notified;
  ServiceOptions options;
  options.jobs = 2;
  options.on_finished = [&](Ticket ticket) {
    const std::scoped_lock lock(mutex);
    notified.push_back(ticket);
  };
  Service service(std::move(options));
  std::vector<Ticket> tickets;
  for (unsigned bits = 2; bits <= 5; ++bits) {
    tickets.push_back(service.submit({Source::graph(bench::make_adder(bits),
                                                    "a" + std::to_string(bits)),
                                      core::make_config(core::Strategy::Naive),
                                      {}}));
  }
  for (const auto ticket : tickets) {
    // The hook's contract: by the time a wait() returns, the result was
    // collectable — so the notification must not be lost either.
    ASSERT_TRUE(service.wait(ticket).ok());
  }
  service.shutdown();
  const std::scoped_lock lock(mutex);
  auto sorted_notified = notified;
  std::sort(sorted_notified.begin(), sorted_notified.end());
  EXPECT_EQ(sorted_notified, tickets);
}

TEST(FlowService, OnFinishedFiresForCancelledTickets) {
  const auto gate = std::make_shared<Gate>();
  std::mutex mutex;
  std::vector<Ticket> notified;
  ServiceOptions options;
  options.jobs = 1;
  options.on_finished = [&](Ticket ticket) {
    const std::scoped_lock lock(mutex);
    notified.push_back(ticket);
  };
  Service service(std::move(options));
  const auto running = service.submit(
      {gated_source(gate), core::make_config(core::Strategy::Naive), {}});
  gate->await_entered();  // the single worker is stuck inside the gated build
  const auto pending = service.submit({Source::graph(bench::make_adder(4), "p"),
                                       core::make_config(core::Strategy::Naive),
                                       {}});
  EXPECT_TRUE(service.cancel(pending));  // never ran — cancellation completes it
  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(notified, std::vector<Ticket>{pending});
  }
  gate->release();
  ASSERT_TRUE(service.wait(running).ok());
  service.shutdown();
  const std::scoped_lock lock(mutex);
  EXPECT_EQ(notified.size(), 2u);
}

}  // namespace
}  // namespace rlim::flow
