#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/endurance.hpp"
#include "mig/mig.hpp"
#include "mig/rewriting.hpp"
#include "sched/deque.hpp"

namespace rlim::bench {
struct BenchmarkSpec;
}

namespace rlim::flow {

/// The input graph of one or more jobs. A Source is shared (by
/// `std::shared_ptr`) between every job that compiles the same netlist, so
/// the graph is built/loaded exactly once per batch and the rewrite cache
/// can key on its content fingerprint.
///
/// Construction is lazy and thread-safe: the graph materializes on the first
/// `original()` / `fingerprint()` call, which may happen on any Runner
/// worker thread.
class Source {
public:
  /// A generator from the built-in evaluation suite.
  [[nodiscard]] static std::shared_ptr<Source> benchmark(
      const bench::BenchmarkSpec& spec);
  /// Looks `name` up in `bench::paper_suite()` (throws rlim::Error when
  /// unknown).
  [[nodiscard]] static std::shared_ptr<Source> benchmark(const std::string& name);
  /// A netlist reference in CLI notation: `bench:NAME`, `*.mig`, or `*.blif`.
  [[nodiscard]] static std::shared_ptr<Source> netlist(const std::string& spec);
  /// An in-memory graph.
  [[nodiscard]] static std::shared_ptr<Source> graph(mig::Mig graph,
                                                     std::string label);

  [[nodiscard]] const std::string& label() const { return label_; }
  /// Declared PI/PO profile (benchmark sources); 0 when not declared.
  [[nodiscard]] unsigned pis() const { return pis_; }
  [[nodiscard]] unsigned pos() const { return pos_; }

  /// The unrewritten graph; built on first call (throws on load failure).
  [[nodiscard]] const mig::Mig& original() const;
  /// Shared handle to `original()` — jobs that compile the graph unrewritten
  /// (`rewrite=none`) carry this as their JobResult::prepared.
  [[nodiscard]] std::shared_ptr<const mig::Mig> original_ptr() const;
  /// Content hash of `original()` — the rewrite-cache key component.
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// fingerprint() if the graph is already materialized, nullopt otherwise —
  /// never builds. Lets flow::Service coalesce duplicate submissions without
  /// blocking the submitting thread on graph construction.
  [[nodiscard]] std::optional<std::uint64_t> ready_fingerprint() const;

private:
  Source() = default;

  [[nodiscard]] const mig::Mig& original_locked() const;

  std::string label_;
  unsigned pis_ = 0;
  unsigned pos_ = 0;
  std::function<mig::Mig()> build_;

  mutable std::mutex mutex_;
  mutable std::shared_ptr<const mig::Mig> graph_;
  mutable std::optional<std::uint64_t> fingerprint_;
};

using SourcePtr = std::shared_ptr<Source>;

/// One cell of a sweep: an input source crossed with a pipeline
/// configuration. The whole batch is handed to flow::Runner.
struct Job {
  SourcePtr source;
  core::PipelineConfig config;
  /// Report label; defaults to the source's label when empty.
  std::string label;
  /// Dequeue-order hints, honored by the Service's work-stealing scheduler.
  /// Neither affects the result bytes — a job computes the same report in
  /// any band — only when it runs relative to its queue peers.
  sched::Priority priority = sched::Priority::Normal;
  /// Soft latency budget, relative to submission; the Service converts it
  /// to an absolute deadline at submit time (earliest-deadline-first within
  /// the priority band). nullopt = no deadline.
  std::optional<std::chrono::milliseconds> deadline{};

  [[nodiscard]] const std::string& display_label() const {
    return label.empty() ? source->label() : label;
  }
};

/// Outcome of one job. Either `error` is empty and the remaining fields are
/// valid, or `error` carries the exception message of the failed pipeline.
struct JobResult {
  core::EnduranceReport report;
  /// Telemetry of the rewriting run that produced `prepared` (recorded once
  /// per cache entry; identical for every job sharing the entry).
  mig::RewriteStats rewrite_stats;
  /// The rewritten graph the compiler consumed — shared with every job that
  /// hit the same cache entry.
  std::shared_ptr<const mig::Mig> prepared;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

}  // namespace rlim::flow
