#pragma once

#include <string>
#include <vector>

#include "flow/cache.hpp"
#include "flow/job.hpp"
#include "flow/report.hpp"
#include "flow/service.hpp"

namespace rlim::flow {

struct RunnerOptions {
  /// Worker-thread count; 0 selects std::thread::hardware_concurrency().
  unsigned jobs = 0;
  /// Memoize compiled programs on (fingerprint, canonical config key):
  /// repeated (source, config) pairs skip compilation entirely. Disable to
  /// measure cold compilation cost; rewritten graphs stay shared either way.
  bool cache_programs = true;
  /// Directory of the persistent store::DiskStore backing the cache
  /// (created on demand); empty leaves the disk tier off. The Runner itself
  /// never consults the environment — benchmarks and tests stay hermetic
  /// however the caller's shell is configured. Front-ends that honor
  /// RLIM_CACHE_DIR (the rlim CLI, the bench drivers) resolve it into this
  /// field (store::env_cache_dir()).
  std::string cache_dir{};
};

/// Executes a batch of Jobs on a thread pool and returns one JobResult per
/// job, in job order — the synchronous convenience over flow::Service
/// (src/flow/service.hpp), which is the underlying async engine. run() is
/// exactly submit_batch + collect on a private Service; callers that need
/// incremental submission, progress, or cancellation should hold a Service
/// directly.
///
/// Determinism: every pipeline stage is a pure function of its job, so the
/// results — and any report rendered from them — are byte-identical for any
/// worker count. Job-level failures are captured in JobResult::error instead
/// of aborting the batch.
///
/// The pipeline cache persists across run() calls, so multi-phase sweeps
/// (e.g. "run uncapped first, then only the binding caps") reuse earlier
/// rewrites — and whole compiled programs — by handing their batches to the
/// same Runner. With a cache_dir (or RLIM_CACHE_DIR) it also persists
/// *across invocations*: the cache reads through to / writes through to a
/// store::DiskStore, so a repeated sweep recompiles nothing.
class Runner {
public:
  /// Throws rlim::Error when the cache directory can neither be created
  /// nor read (a readable read-only store degrades to read-through).
  explicit Runner(RunnerOptions options = {});

  [[nodiscard]] std::vector<JobResult> run(const std::vector<Job>& jobs);

  /// Worker threads a run() over `job_count` jobs would use.
  [[nodiscard]] unsigned concurrency(std::size_t job_count) const;

  [[nodiscard]] const PipelineCache& cache() const { return service_.cache(); }

private:
  RunnerOptions options_;
  /// Coalescing stays off so the façade is bug-compatible with the
  /// pre-Service Runner: every duplicate job goes through the cache and the
  /// historical hit/miss counters (which tests and the bench self-checks
  /// assert on) keep their exact values.
  Service service_;
};

/// Runs one job inline (single worker, fresh cache) — the one-off
/// convenience, routed through the same Service path as every batch so the
/// single-job and batch flows cannot drift apart.
[[nodiscard]] JobResult run_job(const Job& job);

/// Throws rlim::Error with the first failed job's message, if any.
void throw_on_error(const std::vector<JobResult>& results);

/// Shared command-line options of the bench drivers.
struct DriverOptions {
  ReportFormat format = ReportFormat::Table;
  unsigned jobs = 0;  ///< Runner worker count (0 = hardware concurrency)
  /// Persistent pipeline store directory: --cache-dir, falling back to
  /// RLIM_CACHE_DIR (store::env_cache_dir()) like the rlim CLI; empty keeps
  /// the disk tier off. Hand to RunnerOptions::cache_dir.
  std::string cache_dir{};
};

/// Parses `--format table|csv|json`, `--jobs N`, and `--cache-dir DIR` from
/// a bench driver's argv. On bad usage, prints a message to stderr and exits
/// with code 2 (bench drivers have no other CLI surface).
[[nodiscard]] DriverOptions parse_driver_args(int argc, char** argv);

}  // namespace rlim::flow
