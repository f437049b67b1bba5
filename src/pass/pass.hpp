#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "mig/mig.hpp"
#include "mig/rewriting.hpp"
#include "util/registry.hpp"
#include "util/spec.hpp"

namespace rlim::pass {

/// Per-pass telemetry record (one mig::RewriteStats::per_pass entry).
using PassStats = mig::PassStats;

/// One small, equivalence-preserving MIG rewriting step — the paper's
/// Algorithms 1 and 2 are ordered sequences of these. A Pass is immutable
/// after construction and holds no per-run state, so one instance can run on
/// any number of graphs (and threads) concurrently.
class Pass {
public:
  virtual ~Pass() = default;

  /// Registry key of the pass ("maj", "dist", ...).
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The normalized parameters the pass was constructed with (every declared
  /// parameter present — registry normalization fills defaults).
  [[nodiscard]] virtual const util::Params& params() const = 0;

  /// Rewrites `graph` in place (replacing it with the rewritten copy) and
  /// adds this run's rule firings to `stats.applications`. The surrounding
  /// telemetry — run counts, size/level/complement deltas, wall time — is
  /// owned by the PassManager, so a Pass only reports what it alone knows.
  virtual void run(mig::Mig& graph, PassStats& stats) const = 0;
};

using PassPtr = std::shared_ptr<const Pass>;
using PassFactory = std::function<PassPtr(const util::Params&)>;

/// Registry of rewriting passes, keyed like every other policy registry
/// (`rlim policies` lists it as the `pass` kind). Built-ins:
///   maj      Ω.M majority-axiom local rules
///   dist     Ω.D (R→L) distributivity
///   assoc    Ω.A associativity-rebalance
///   comp     Ψ.C complement-canonicalize (complementary associativity)
///   inv      Ω.I (R→L, variants 1–3) inverter-propagate
///   inv3     Ω.I (R→L) fully-complemented inverter-propagate
///   relief   Ω.A wear-target relief (level balancing, §III-B.4)
///   cleanup  dead-node elimination + re-strash
/// Open for downstream registration (see examples/pass_pipeline.cpp).
[[nodiscard]] util::Registry<PassFactory>& passes();

/// Normalize `spec` against passes() and construct the pass.
[[nodiscard]] PassPtr make_pass(const util::PolicySpec& spec);

}  // namespace rlim::pass
