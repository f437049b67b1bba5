#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <thread>

#include "bench.hpp"
#include "sched/sched.hpp"

namespace perfbench {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const auto origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

namespace {
cpu_set_t g_all_cpus;
}  // namespace

void use_half_of_cpus() {
  if (sched_getaffinity(0, sizeof g_all_cpus, &g_all_cpus) != 0) {
    return;  // leave the affinity alone when it cannot be read
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &g_all_cpus)) {
      allowed.push_back(cpu);
    }
  }
  cpu_set_t half;
  CPU_ZERO(&half);
  for (std::size_t i = allowed.size() / 2; i < allowed.size(); ++i) {
    CPU_SET(allowed[i], &half);
  }
  (void)sched_setaffinity(0, sizeof half, &half);
}

void use_all_cpus() {
  if (CPU_COUNT(&g_all_cpus) > 0) {
    (void)sched_setaffinity(0, sizeof g_all_cpus, &g_all_cpus);
  }
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- closed-loop load ----------------------------------------------------

std::vector<Sample> closed_loop(
    unsigned streams,
    const std::function<bool(std::uint64_t claimed)>& keep_going,
    const JobFn& job) {
  std::mutex mutex;
  std::uint64_t next = 0;
  bool stop = false;
  std::vector<std::vector<Sample>> per_stream(streams);
  const auto body = [&](unsigned stream) {
    while (true) {
      std::uint64_t index = 0;
      {
        std::lock_guard lock(mutex);
        if (stop || !keep_going(next)) {
          stop = true;
          return;
        }
        index = next++;
      }
      const auto start = now_ns();
      std::int64_t done = 0;
      bool ok = false;
      try {
        ok = job(stream, index, done);
      } catch (const std::exception& error) {
        std::cerr << "perfbench: job " << index << " threw: " << error.what()
                  << "\n";
      }
      if (done == 0) {
        done = now_ns();
      }
      per_stream[stream].push_back(
          {static_cast<float>(static_cast<double>(done - start) * 1e-6),
           static_cast<std::uint32_t>(done / 1000), ok});
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (unsigned stream = 0; stream < streams; ++stream) {
    threads.emplace_back(body, stream);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::vector<Sample> samples;
  samples.reserve(next);
  for (const auto& list : per_stream) {
    samples.insert(samples.end(), list.begin(), list.end());
  }
  return samples;
}

std::function<bool(std::uint64_t)> timed_window(double seconds,
                                                std::uint64_t min_jobs,
                                                double cap_seconds) {
  const auto start = now_ns();
  return [=](std::uint64_t claimed) {
    const auto elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed >= cap_seconds) {
      return false;
    }
    return elapsed < seconds || claimed < min_jobs;
  };
}

std::function<bool(std::uint64_t)> fixed_count(std::uint64_t jobs) {
  return [jobs](std::uint64_t claimed) { return claimed < jobs; };
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Mark mark_now() { return {now_ns(), process_cpu_s()}; }

Ticker::Ticker(double period_s) {
  marks_.push_back(mark_now());
  const auto period = std::chrono::duration<double>(period_s);
  thread_ = std::thread([this, period] {
    std::unique_lock lock(mutex_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      marks_.push_back(mark_now());
    }
  });
}

Ticker::~Ticker() { (void)stop(); }

std::vector<Mark> Ticker::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      return marks_;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  marks_.push_back(mark_now());
  return marks_;
}

namespace {

/// Nearest rank: the smallest sample with at least p% of the sample at or
/// below it. `sorted` must be non-empty.
double nearest_rank(const std::vector<double>& sorted, double p) {
  const auto n = sorted.size();
  const auto index = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return sorted[std::min(n, std::max<std::size_t>(index, 1)) - 1];
}

}  // namespace

void add_setup(WorkloadResult& out, const SetupTiming& timing) {
  out.metrics.push_back({"setup_s", median(timing.times), "s"});
  out.facts["setup_repeats"] = std::to_string(timing.times.size());
}

void add_end_to_end(WorkloadResult& out, const std::vector<Sample>& samples,
                    const std::vector<Mark>& marks, bool slice_percentiles) {
  // A short last slice is folded into the one before it.
  std::vector<Mark> cuts(marks.begin(), marks.end());
  if (cuts.size() > 2) {
    const auto full = cuts[1].t_ns - cuts[0].t_ns;
    if (cuts.back().t_ns - cuts[cuts.size() - 2].t_ns < full / 2) {
      cuts.erase(cuts.end() - 2);
    }
  }
  const auto slices = cuts.size() - 1;
  std::vector<std::vector<double>> latencies(slices);
  std::vector<std::uint64_t> ok(slices, 0);
  std::vector<double> all;
  for (const auto& sample : samples) {
    // A failed job misses every latency limit: it enters the sample as
    // +inf, so failures push the percentiles up instead of vanishing.
    const double latency = sample.ok ? sample.latency_ms
                                     : std::numeric_limits<double>::infinity();
    all.push_back(latency);
    std::size_t slice = 0;
    const auto end_ns = static_cast<std::int64_t>(sample.end_us) * 1000;
    while (slice + 1 < slices && end_ns >= cuts[slice + 1].t_ns) {
      ++slice;
    }
    latencies[slice].push_back(latency);
    ok[slice] += sample.ok ? 1 : 0;
  }
  std::vector<double> rates;
  std::vector<double> cpu_per_job;
  for (std::size_t i = 0; i < slices; ++i) {
    const auto seconds =
        static_cast<double>(cuts[i + 1].t_ns - cuts[i].t_ns) * 1e-9;
    rates.push_back(static_cast<double>(ok[i]) / seconds);
    if (!latencies[i].empty()) {
      cpu_per_job.push_back((cuts[i + 1].cpu_s - cuts[i].cpu_s) * 1e3 /
                            static_cast<double>(latencies[i].size()));
    }
    std::sort(latencies[i].begin(), latencies[i].end());
  }
  std::sort(all.begin(), all.end());
  const auto percentile = [&](double p) {
    if (!slice_percentiles) {
      return nearest_rank(all, p);
    }
    std::vector<double> per_slice;
    for (const auto& slice : latencies) {
      if (!slice.empty()) {
        per_slice.push_back(nearest_rank(slice, p));
      }
    }
    return median(std::move(per_slice));
  };
  const auto n = all.size();
  std::size_t fewest = n;
  for (const auto& slice : latencies) {
    fewest = std::min(fewest, slice.size());
  }
  const auto beyond_p99 = (slice_percentiles ? fewest : n) -
                          static_cast<std::size_t>(std::ceil(
                              0.99 * static_cast<double>(
                                         slice_percentiles ? fewest : n)));
  out.metrics.push_back({"jobs_per_s", median(rates), "1/s"});
  out.metrics.push_back({"p50_ms", percentile(50), "ms"});
  out.metrics.push_back({"p90_ms", percentile(90), "ms"});
  out.metrics.push_back({"p99_ms", percentile(99), "ms"});
  out.metrics.push_back({"cpu_ms_per_job", median(cpu_per_job), "ms"});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  out.facts["latency_samples"] = std::to_string(n);
  out.facts["slices"] = std::to_string(slices);
  out.facts["percentiles"] = slice_percentiles ? "median of slices" : "window";
  out.facts["samples_beyond_p99"] = std::to_string(beyond_p99);
  out.facts["window_s"] = std::to_string(
      static_cast<double>(cuts.back().t_ns - cuts.front().t_ns) * 1e-9);
  if (beyond_p99 < 10) {
    std::cerr << "perfbench: only " << beyond_p99
              << " samples beyond p99 (window cap reached)\n";
  }
}

// ---- digests -------------------------------------------------------------

Digest& Digest::add(std::uint64_t word) {
  // One multiply and one xorshift per word: both are bijections, so any
  // single changed word changes the digest.
  state_ = (state_ ^ word) * 0x100000001b3ULL;
  state_ ^= state_ >> 29;
  return *this;
}

Digest& Digest::add(double value) {
  return add(std::bit_cast<std::uint64_t>(value));
}

Digest& Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) {
    state_ ^= static_cast<std::uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

void add_distribution(Digest& digest,
                      const rlim::fault::LifetimeDistribution& dist) {
  digest.add(static_cast<std::uint64_t>(dist.trials))
      .add(dist.runs_cap)
      .add(static_cast<std::uint64_t>(dist.censored))
      .add(dist.lifetime_min)
      .add(dist.lifetime_p50)
      .add(dist.lifetime_p99)
      .add(dist.lifetime_max)
      .add(dist.lifetime_mean)
      .add(dist.failed_cells_min)
      .add(dist.failed_cells_max)
      .add(dist.failed_cells_mean)
      .add(dist.remapped_total)
      .add(dist.dropped_writes);
}

void add_hw_stats(Digest& digest, const rlim::core::EnduranceReport& report) {
  digest.add(static_cast<std::uint64_t>(report.instructions))
      .add(static_cast<std::uint64_t>(report.rrams))
      .add(report.writes.min)
      .add(report.writes.max)
      .add(report.writes.stdev);
  digest.add(static_cast<std::uint64_t>(report.fault_sweep.has_value()));
  if (report.fault_sweep) {
    add_distribution(digest, *report.fault_sweep);
  }
}

std::uint64_t report_digest(const rlim::core::EnduranceReport& report) {
  Digest digest;
  add_hw_stats(digest, report);
  digest.add(static_cast<std::uint64_t>(report.gates_before_rewrite))
      .add(static_cast<std::uint64_t>(report.gates_after_rewrite))
      .add(report.config.canonical_key());
  const auto& program = report.program;
  digest.add(static_cast<std::uint64_t>(program.num_cells()));
  for (const auto& instruction : program.instructions()) {
    digest.add(static_cast<std::uint64_t>(
        (static_cast<std::uint64_t>(instruction.a.raw()) << 32) |
        instruction.b.raw()));
    digest.add(static_cast<std::uint64_t>(instruction.z));
  }
  for (const auto cell : program.pi_cells()) {
    digest.add(static_cast<std::uint64_t>(cell));
  }
  for (const auto cell : program.po_cells()) {
    digest.add(static_cast<std::uint64_t>(cell) | (std::uint64_t{1} << 40));
  }
  return digest.value();
}

std::uint64_t sweep_executions(const rlim::fault::LifetimeDistribution& dist) {
  // lifetime_mean is the mean of integer lifetimes; trials * mean recovers
  // their exact sum (well below 2^53). Each uncensored trial also ran the
  // one execution whose output diverged.
  const auto lifetime_sum = static_cast<std::uint64_t>(
      std::llround(dist.lifetime_mean * static_cast<double>(dist.trials)));
  return lifetime_sum + (dist.trials - dist.censored);
}

// ---- tracing ---------------------------------------------------------------

void Tracer::record(std::string name, std::uint64_t job, std::uint64_t parent,
                    unsigned tid, std::int64_t start_ns, std::int64_t end_ns) {
  std::lock_guard lock(mutex_);
  const auto id = next_id_++;
  spans_.push_back({std::move(name), id, parent, job, tid, start_ns, end_ns});
}

std::uint64_t Tracer::open() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

void Tracer::close(std::uint64_t id, std::string name, std::uint64_t job,
                   std::uint64_t parent, unsigned tid, std::int64_t start_ns,
                   std::int64_t end_ns) {
  std::lock_guard lock(mutex_);
  spans_.push_back({std::move(name), id, parent, job, tid, start_ns, end_ns});
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::total_ns() const {
  std::map<std::string, double> total;
  for (const auto& span : spans()) {
    total[span.name] += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total;
}

std::map<std::string, double> Tracer::self_ns() const {
  const auto all = spans();
  std::map<std::uint64_t, double> child_ns;
  for (const auto& span : all) {
    if (span.parent != 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (const auto& span : all) {
    const auto it = child_ns.find(span.id);
    self[span.name] += static_cast<double>(span.end_ns - span.start_ns) -
                       (it == child_ns.end() ? 0.0 : it->second);
  }
  return self;
}

void Tracer::write_chrome(const std::filesystem::path& path,
                          const std::string& context_json) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"otherData\":" << context_json << ",\"traceEvents\":[";
  bool first = true;
  char buffer[512];
  for (const auto& span : spans()) {
    const auto dot = span.name.find('.');
    std::snprintf(
        buffer, sizeof buffer,
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"job\":%llu}}",
        first ? "" : ",", span.name.c_str(),
        span.name.substr(0, dot).c_str(),
        static_cast<double>(span.start_ns) * 1e-3,
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3, span.tid,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.job));
    out << buffer;
    first = false;
  }
  out << "\n]}\n";
}

Scope::Scope(Tracer* tracer, const char* name, std::uint64_t job,
             std::uint64_t parent, unsigned tid)
    : tracer_(tracer), name_(name), job_(job), parent_(parent), tid_(tid) {
  if (tracer_ != nullptr) {
    id_ = tracer_->open();
    start_ns_ = now_ns();
  }
}

Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->close(id_, name_, job_, parent_, tid_, start_ns_, now_ns());
  }
}

// ---- per-layer metrics -----------------------------------------------------

namespace {

/// Every per-layer metric of BENCHMARK.json with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"benchmarks.build_ms", "ms"},
      {"mig.rewrite_ms", "ms"},
      {"mig.rewrite_calls", "count"},
      {"mig.gates_out", "count"},
      {"mig.simulate_ms", "ms"},
      {"pass.runs", "count"},
      {"pass.applications", "count"},
      {"plim.compile_ms", "ms"},
      {"plim.compile_calls", "count"},
      {"plim.instructions", "count"},
      {"plim.cells", "count"},
      {"plim.evaluate_ms", "ms"},
      {"plim.evaluate_instr_per_s", "1/s"},
      {"fault.sweep_ms", "ms"},
      {"fault.trials", "count"},
      {"fault.executions", "count"},
      {"fault.censored_frac", "frac"},
      {"fault.sim_instr_per_s", "1/s"},
      {"core.canonical_key_us", "us"},
      {"store.put_ms", "ms"},
      {"store.bytes_written", "B"},
      {"store.encode_mig_us", "us"},
      {"store.decode_mig_us", "us"},
      {"flow.cache.rewrite_hit_ratio", "ratio"},
      {"flow.cache.program_hit_ratio", "ratio"},
      {"flow.cache.warm_hit_us", "us"},
      {"flow.wire.encode_spec_us", "us"},
      {"flow.wire.decode_spec_us", "us"},
      {"flow.wire.to_job_us", "us"},
      {"flow.wire.encode_result_us", "us"},
      {"flow.wire.decode_result_us", "us"},
      {"flow.wire.result_bytes", "B"},
      {"flow.service.coalesced_frac", "frac"},
      {"flow.job_ms", "ms"},
      {"flow.unattributed_ms", "ms"},
      {"sched.enqueue_to_start_us", "us"},
      {"sched.steals", "count"},
      {"sched.parks", "count"},
      {"sched.forked", "count"},
      {"net.ping_rtt_us", "us"},
      {"net.bytes_per_job", "B"},
      {"net.retries", "count"},
      {"net.failovers", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return units;
}

}  // namespace

void add_layer_times(WorkloadResult& out, const Tracer& tracer,
                     const std::vector<LayerShare>& layers,
                     double job_latency_ms) {
  const auto total = tracer.total_ns();
  const auto self = tracer.self_ns();
  const auto lookup = [](const std::map<std::string, double>& map,
                         const std::string& name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  double attributed_ms = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& layer : layers) {
    const double per_job_ms = lookup(total, layer.span) * 1e-6 / layer.jobs;
    const bool micro = layer.metric.ends_with("_us");
    out.metrics.push_back(
        {layer.metric, micro ? per_job_ms * 1e3 : per_job_ms,
         micro ? "us" : "ms"});
    if (layer.attributed) {
      const double self_ms = lookup(self, layer.span) * 1e-6 / layer.jobs;
      attributed_ms += self_ms;
      rows.emplace_back(layer.metric, self_ms);
    }
  }
  const double unattributed_ms = job_latency_ms - attributed_ms;
  out.metrics.push_back({"flow.job_ms", job_latency_ms, "ms"});
  out.metrics.push_back({"flow.unattributed_ms", unattributed_ms, "ms"});

  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cerr << "per-layer self time per job (share of the attributed "
            << attributed_ms << " ms):\n";
  char line[256];
  for (const auto& [metric, ms] : rows) {
    std::snprintf(line, sizeof line, "  %-30s %12.4f ms  %6.1f%%\n",
                  metric.c_str(), ms,
                  attributed_ms > 0 ? 100.0 * ms / attributed_ms : 0.0);
    std::cerr << line;
  }
  std::snprintf(line, sizeof line,
                "mean job latency %.4f ms, unattributed %.4f ms (queueing, "
                "hand-offs, framing; negative where a job's parts run in "
                "parallel)\n",
                job_latency_ms, unattributed_ms);
  std::cerr << line;
}

double overhead_pct(double before_s, double traced_s, double after_s) {
  const double untraced_s = 0.5 * (before_s + after_s);
  return 100.0 * (traced_s - untraced_s) / untraced_s;
}

void complete_layer_metrics(WorkloadResult& out) {
  std::set<std::string> present;
  for (const auto& metric : out.metrics) {
    present.insert(metric.name);
  }
  for (const auto& [name, unit] : layer_metric_units()) {
    if (present.count(name) == 0) {
      out.metrics.push_back({name, 0.0, unit});
    }
  }
  // Report in the BENCHMARK.json order.
  std::map<std::string, std::size_t> order;
  for (std::size_t i = 0; i < layer_metric_units().size(); ++i) {
    order[layer_metric_units()[i].first] = i;
  }
  std::stable_sort(out.metrics.begin(), out.metrics.end(),
                   [&](const Metric& a, const Metric& b) {
                     return order[a.name] < order[b.name];
                   });
}

void probe_enqueue_to_start(Tracer& tracer, unsigned workers, unsigned clients,
                            unsigned tasks) {
  rlim::sched::SchedulerOptions options;
  options.workers = workers;
  rlim::sched::Scheduler scheduler(options);
  std::atomic<unsigned> next{0};
  const auto client = [&](unsigned tid) {
    std::mutex mutex;
    std::condition_variable cv;
    while (true) {
      const auto index = next.fetch_add(1);
      if (index >= tasks) {
        return;
      }
      bool done = false;
      std::int64_t started = 0;
      const auto enqueued = now_ns();
      scheduler.submit(rlim::sched::Task{[&] {
        std::lock_guard lock(mutex);
        started = now_ns();
        done = true;
        cv.notify_one();
      }});
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return done; });
      tracer.record("sched.enqueue_to_start", 0, 0, 100 + tid, enqueued,
                    started);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < clients; ++tid) {
    threads.emplace_back(client, tid);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  scheduler.shutdown();
}

TempDir::TempDir(const std::filesystem::path& root, const std::string& name)
    : path_(root / name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
