#pragma once

// Shared plumbing of the rlim end-to-end benchmark: options, timing, the
// closed-loop clients, result digests, metrics, and the span tracer.
// Everything here sits outside the library and reaches it only through its
// public headers.

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/endurance.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

/// Confines the calling thread, and every thread it starts afterwards, to
/// the upper half of the CPUs the process may use (at least one). The
/// workloads keep their busy threads at about half the host; confined, their
/// hand-offs do not wait for idle virtual CPUs to wake, which on a shared
/// host is slow whenever the neighbours are busy. (Eight interleaved pairs
/// of serve_cluster runs on a 4-vCPU VM: unconfined runs in a busy stretch
/// fell to 1.5k-3.8k jobs/s with p99 2.7-9.5 ms; confined ones kept
/// 5.0k-5.6k jobs/s and p99 1.0-1.3 ms.)
void use_half_of_cpus();
/// Lets the calling thread, and the threads it starts afterwards, use every
/// CPU use_half_of_cpus() found (for untimed work such as the gate).
void use_all_cpus();

/// Process CPU time (user + system) in seconds, all threads.
double process_cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Gate self-test: damage one collected result after the timed window so
  /// the correctness gate must reject the run.
  bool corrupt_result = false;
  std::filesystem::path out_dir = ".bench_out";
};

/// One named metric value as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< error results + transport failures + mismatches
  std::uint64_t mismatches = 0;
  std::vector<Metric> metrics;
  /// Extra facts for the context line (sample counts, stream/worker shape).
  std::map<std::string, std::string> facts;
  /// Exact digest of the modelled-hardware outputs (hex) and how many
  /// results it covers.
  std::string hw_digest;
  std::uint64_t digest_entries = 0;
};

// ---- closed-loop load ----------------------------------------------------

/// Per-job client-side outcome, kept small: a serving window records a
/// few hundred thousand, and they count toward the peak RSS.
struct Sample {
  float latency_ms = 0.0f;
  std::uint32_t end_us = 0;  ///< now_ns() / 1000 when the result arrived
  bool ok = false;
};

/// A point on a window's time line: wall clock and process CPU time.
struct Mark {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
};
Mark mark_now();

/// Records a Mark on construction, every `period_s` on a background thread,
/// and on stop(); the marks cut a window into slices.
class Ticker {
 public:
  explicit Ticker(double period_s);
  ~Ticker();
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;
  /// Stops the thread and returns every mark, the final one included.
  std::vector<Mark> stop();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Mark> marks_;
  std::thread thread_;
};

/// One job of a closed loop: submits job `index` from client `stream`, waits
/// for its result, and returns whether it succeeded. A job that does
/// bookkeeping after the result arrived stores now_ns() in `done_ns` first,
/// so the latency sample ends when the result did.
using JobFn = std::function<bool(unsigned stream, std::uint64_t index,
                                 std::int64_t& done_ns)>;

/// Runs `streams` client threads; each repeatedly claims the next job index
/// and runs it — submitting its next job only after the previous one
/// returned. A stream stops claiming once `keep_going(claimed)` is false.
/// Returns one sample per job, grouped by stream.
std::vector<Sample> closed_loop(
    unsigned streams,
    const std::function<bool(std::uint64_t claimed)>& keep_going,
    const JobFn& job);

/// Keep-going rule of a timed window: run until `seconds` have passed and at
/// least `min_jobs` were claimed (so the highest reported percentile has ten
/// samples beyond it), but never past `cap_seconds`.
std::function<bool(std::uint64_t)> timed_window(double seconds,
                                                std::uint64_t min_jobs,
                                                double cap_seconds);
/// Keep-going rule of a fixed-size pass: exactly `jobs` jobs.
std::function<bool(std::uint64_t)> fixed_count(std::uint64_t jobs);

/// Jobs a timed window must complete: p99 needs ten samples beyond it.
inline constexpr std::uint64_t kMinTimedJobs = 1000;
/// Hard wall-clock cap on a timed window (the whole command must end well
/// inside three minutes, gate included).
inline constexpr double kWindowCapSeconds = 75.0;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Set-up is timed repeatedly, at least kSetupMinRepeats times and for at
/// least kSetupMinSeconds per block, and reported as the median: the first
/// set-ups of a process run on cold host CPUs and would otherwise set the
/// figure. An untraced run times one block before its window and one after
/// it (with the window's instance torn down first), so the median samples
/// the host at two moments a window apart instead of one short stretch.
inline constexpr unsigned kSetupMinRepeats = 9;
inline constexpr double kSetupMinSeconds = 2.0;

struct SetupTiming {
  std::vector<double> times;  ///< seconds per set-up, every block
};

/// Runs one block of set-ups per the rule above, appends their times to
/// `timing`, and returns the last product.
template <typename Make>
auto repeated_setup(SetupTiming& timing, Make&& make) {
  decltype(make()) kept{};
  const auto first = now_ns();
  for (unsigned repeats = 0;
       repeats < kSetupMinRepeats ||
       static_cast<double>(now_ns() - first) * 1e-9 < kSetupMinSeconds;
       ++repeats) {
    kept = {};  // tear the previous instance down outside the timed region
    const auto start = now_ns();
    kept = make();
    timing.times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return kept;
}

/// Appends setup_s, the median of every set-up `timing` holds.
void add_setup(WorkloadResult& out, const SetupTiming& timing);

/// The end-to-end metrics every workload reports, setup_s aside.
/// `marks` cut the window into slices; throughput and CPU per job are the
/// medians over the slices, so a burst of interference from other tenants
/// of the host moves them less. Percentiles are nearest-rank over the whole
/// window, or with `slice_percentiles` the median of each slice's own
/// percentile (only for workloads whose every slice holds well over 1000
/// samples). `facts` records the sample and slice counts and how many
/// samples lie beyond p99.
void add_end_to_end(WorkloadResult& out, const std::vector<Sample>& samples,
                    const std::vector<Mark>& marks, bool slice_percentiles);

// ---- digests -------------------------------------------------------------

/// FNV-style accumulator over 64-bit words.
class Digest {
 public:
  Digest& add(std::uint64_t word);
  Digest& add(double value);
  Digest& add(std::string_view text);
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Exact digest of one compiled result: #I, #R, write min/max/stdev, gate
/// counts, every program instruction and PI/PO binding, and the lifetime
/// distribution when present. Labels and wall-clock telemetry are excluded.
std::uint64_t report_digest(const rlim::core::EnduranceReport& report);
/// The modelled-hardware statistics alone (#I, #R, writes, distribution) —
/// the numbers a simulator-only change must leave untouched.
void add_hw_stats(Digest& digest, const rlim::core::EnduranceReport& report);
void add_distribution(Digest& digest,
                      const rlim::fault::LifetimeDistribution& dist);

/// Simulated executions a sweep performed: every trial runs until its first
/// wrong execution (counted) or the censoring cap.
std::uint64_t sweep_executions(const rlim::fault::LifetimeDistribution& dist);

// ---- the five paper presets ------------------------------------------------

inline constexpr const char* kPresets[] = {"naive", "plim21", "min-write",
                                           "endurance-rewrite", "full"};
inline constexpr std::size_t kPresetCount = std::size(kPresets);

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans carry a name (the layer metric they feed),
/// start/end, a parent, and the job id they belong to; they are written out
/// only when the run ends. A null Tracer* disables recording, which is how
/// the untraced passes run.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t job = 0;     ///< 0 = not tied to a job (set-up, probes)
    unsigned tid = 0;  ///< 0 = main thread, 1 + n = client stream n
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Records a finished span.
  void record(std::string name, std::uint64_t job, std::uint64_t parent,
              unsigned tid, std::int64_t start_ns, std::int64_t end_ns);
  /// Reserves an id for a span whose end is recorded later via close().
  std::uint64_t open();
  void close(std::uint64_t id, std::string name, std::uint64_t job,
             std::uint64_t parent, unsigned tid, std::int64_t start_ns,
             std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Summed duration per span name in ns.
  [[nodiscard]] std::map<std::string, double> total_ns() const;
  /// Self time per span name in ns: each span's duration minus the summed
  /// durations of the spans naming it as parent. A direct call that splits
  /// out an inner layer (an encode inside a frame encode) names the outer
  /// span as its parent, so the outer layer keeps only its own share.
  [[nodiscard]] std::map<std::string, double> self_ns() const;
  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  void write_chrome(const std::filesystem::path& path,
                    const std::string& context_json) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: records [construction, destruction) when `tracer` is set.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t job,
        std::uint64_t parent = 0, unsigned tid = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t job_;
  std::uint64_t parent_;
  unsigned tid_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Times `fn` once and records it as a span.
template <typename Fn>
void timed_span(Tracer* tracer, const char* name, std::uint64_t job,
                std::uint64_t parent, Fn&& fn) {
  const auto start = now_ns();
  fn();
  if (tracer != nullptr) {
    tracer->record(name, job, parent, 0, start, now_ns());
  }
}

/// Per-layer metric table of a traced run. Each entry names a layer metric
/// and how many jobs its span totals are spread over.
struct LayerShare {
  std::string metric;  ///< e.g. "mig.rewrite_ms"; a "_us" suffix reports µs
  std::string span;    ///< span name, e.g. "mig.rewrite"
  double jobs = 1.0;   ///< divide the span totals by this
  bool attributed = true;  ///< counts toward the per-job self-time table
};

/// Turns span totals into per-job layer metrics (appended to `out`; a layer
/// metric is the whole call, inner layers included) and prints the
/// self-time table: each attributed layer's per-job self time and its share
/// of their sum, then the part of the mean job latency they leave
/// unattributed.
void add_layer_times(WorkloadResult& out, const Tracer& tracer,
                     const std::vector<LayerShare>& layers,
                     double job_latency_ms);

/// Tracing overhead in percent: the traced pass's process CPU time against
/// the mean of the untraced passes run before and after it on the same work
/// (CPU time varies less between passes than wall time).
double overhead_pct(double before_s, double traced_s, double after_s);

/// Fills every per-layer metric of BENCHMARK.json that `out` lacks with 0:
/// a layer a workload does not exercise reports no work.
void complete_layer_metrics(WorkloadResult& out);

/// Scheduler enqueue→start probe: `clients` closed-loop threads submit
/// `tasks` no-op tasks to a `workers`-thread sched::Scheduler; each task's
/// wait is recorded as a "sched.enqueue_to_start" span.
inline constexpr unsigned kProbeTasks = 2000;
void probe_enqueue_to_start(Tracer& tracer, unsigned workers, unsigned clients,
                            unsigned tasks);

/// A directory under the output root that is removed on destruction.
class TempDir {
 public:
  TempDir(const std::filesystem::path& root, const std::string& name);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// ---- workloads ---------------------------------------------------------------

/// Each workload runs its timed window when `tracer` is null; otherwise it
/// runs the traced protocol (untraced pass, traced pass, direct-call split)
/// and reports the per-layer metrics.
WorkloadResult run_paper_cold(const Options& options, Tracer* tracer);
WorkloadResult run_serve_cluster(const Options& options, Tracer* tracer);
WorkloadResult run_fault_mc(const Options& options, Tracer* tracer);

}  // namespace perfbench
