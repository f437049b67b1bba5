// Asynchronous execution with flow::Service: incremental submission,
// progress observation, duplicate coalescing, cooperative cancellation, and
// shipping work through flow::wire bytes — the API surface a network
// front-end or shard coordinator builds on. Compare examples/quickstart.cpp,
// which runs the same pipeline as one blocking flow::run_job call.

#include <iostream>

#include "benchmarks/arithmetic.hpp"
#include "flow/service.hpp"
#include "flow/wire.hpp"

int main() try {
  using namespace rlim;

  flow::Service service({.jobs = 2});
  const auto config = core::make_config(core::Strategy::FullEndurance);

  // 1. Submit returns immediately; execution starts on the worker pool.
  const auto source = flow::Source::graph(bench::make_adder(8), "adder8");
  const auto ticket = service.submit({source, config, "first"});

  // 2. A duplicate of an in-flight job coalesces: it is fulfilled from the
  //    primary's result (own label patched in) without occupying a worker.
  const auto duplicate = service.submit({source, config, "again"});

  // 3. Batches come with a progress handle.
  std::vector<flow::Job> batch_jobs;
  for (const unsigned bits : {4u, 5u, 6u}) {
    batch_jobs.push_back({flow::Source::graph(bench::make_adder(bits),
                                              "adder" + std::to_string(bits)),
                          config,
                          {}});
  }
  const auto batch = service.submit_batch(batch_jobs);
  batch.wait();
  std::cout << "batch: " << batch.completed() << "/" << batch.size()
            << " jobs done\n";

  // 4. Results are collected by ticket, in any order.
  for (const auto& result : service.collect(batch)) {
    std::cout << "  " << result.report.benchmark << ": "
              << result.report.instructions << " instructions, write stdev "
              << result.report.writes.stdev << '\n';
  }
  const auto first = service.wait(ticket);
  const auto again = service.wait(duplicate);
  // Whether the duplicate coalesced in flight or hit the program cache
  // depends on timing; either way it reuses the primary's work and only the
  // label differs.
  std::cout << "duplicate '" << again.report.benchmark << "' reused '"
            << first.report.benchmark << "' (" << service.stats().coalesced
            << " coalesced in flight, " << service.cache().program_hits()
            << " program-cache hits)\n";

  // 5. Cancellation is cooperative: pending work can be withdrawn, running
  //    work always completes.
  const auto doomed = service.submit({source, config, "doomed"});
  if (service.cancel(doomed)) {
    std::cout << "cancelled: " << service.wait(doomed).error << '\n';
  } else {
    std::cout << "too late to cancel; result ok="
              << service.wait(doomed).ok() << '\n';
  }

  // 6. flow::wire ships jobs and results across process boundaries: a
  //    self-contained JobSpec frame round-trips through bytes and executes
  //    to the same report on the far side.
  const auto frame = flow::wire::encode(flow::wire::JobSpec::inline_graph(
      bench::make_adder(8), "adder8", config, "remote"));
  const auto remote_job = flow::wire::decode_job_spec(frame).to_job();
  const auto remote = service.wait(service.submit(remote_job));
  const auto reply = flow::wire::decode_job_result(
      flow::wire::encode(remote));
  std::cout << "wire: " << frame.size() << "-byte job frame -> '"
            << reply.report.benchmark << "' with "
            << reply.report.instructions << " instructions (matches local: "
            << (reply.report.instructions == first.report.instructions)
            << ")\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "async_service: " << error.what() << '\n';
  return 1;
}
