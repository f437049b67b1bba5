#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "fault/sweep.hpp"
#include "mig/mig.hpp"
#include "mig/rewriting.hpp"
#include "plim/compiler.hpp"
#include "util/stats.hpp"

namespace rlim::core {

/// Result of one benchmark × configuration run — one cell of the paper's
/// tables.
struct EnduranceReport {
  std::string benchmark;
  PipelineConfig config;
  std::size_t instructions = 0;       ///< #I
  std::size_t rrams = 0;              ///< #R
  util::WriteStats writes;            ///< min / max / STDEV
  std::size_t gates_before_rewrite = 0;
  std::size_t gates_after_rewrite = 0;
  plim::Program program;              ///< for execution / trace replay
  /// Monte-Carlo lifetime distribution; present iff the config requests a
  /// fault scenario (`fault=` clause other than `none`).
  std::optional<fault::LifetimeDistribution> fault_sweep;
};

/// Rewrites `graph` per the config (the expensive step — cache the result
/// when sweeping compile-side options).
[[nodiscard]] mig::Mig prepare(const mig::Mig& graph, const PipelineConfig& config);

/// Compiles an already-rewritten graph.
[[nodiscard]] EnduranceReport compile_prepared(const mig::Mig& prepared,
                                               const PipelineConfig& config,
                                               std::string benchmark_name = {},
                                               std::size_t gates_before = 0);

/// prepare + compile in one call — a single-job convenience. Sweeps and
/// batches should go through flow::Service (src/flow/service.hpp), which
/// adds a thread pool and a content-addressed rewrite cache on top of these
/// primitives.
[[nodiscard]] EnduranceReport run_pipeline(const mig::Mig& graph,
                                           const PipelineConfig& config,
                                           std::string benchmark_name = {});

/// Paper's "impr." column: STDEV improvement of `ours` relative to `baseline`
/// in percent (negative when worse).
[[nodiscard]] double stdev_improvement(const EnduranceReport& baseline,
                                       const EnduranceReport& ours);

}  // namespace rlim::core
