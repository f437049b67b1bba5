#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "util/spec.hpp"

namespace rlim::core {

/// The incremental endurance-management configurations evaluated in the
/// paper (Table I columns; FullEndurance + max_writes gives Table III).
/// Each strategy is a preset alias over the registry-keyed PipelineConfig.
enum class Strategy {
  /// Node translation only: no MIG rewriting, creation-order selection,
  /// LIFO cell reuse. The paper's baseline.
  Naive,
  /// The PLiM compiler of [21]: Algorithm 1 rewriting + area-greedy node
  /// selection (still LIFO reuse).
  Plim21,
  /// + the minimum write count strategy (least-written free cell first).
  MinWrite,
  /// + endurance-aware MIG rewriting (Algorithm 2 replaces Algorithm 1).
  MinWriteEnduranceRewrite,
  /// + endurance-aware node selection (Algorithm 3) — the full flow.
  FullEndurance,
};

[[nodiscard]] std::string to_string(Strategy strategy);
/// Inverse of to_string; also accepts the short preset aliases ("naive",
/// "plim21", "min-write", "endurance-rewrite", "full"). Throws rlim::Error.
[[nodiscard]] Strategy parse_strategy(std::string_view name);

/// Preset alias -> strategy table, in paper column order (the spec-grammar
/// and CLI names).
[[nodiscard]] std::span<const std::pair<std::string_view, Strategy>>
strategy_aliases();
/// Short preset alias of a strategy ("naive", ..., "full").
[[nodiscard]] std::string_view strategy_alias(Strategy strategy);

/// Everything needed to run one pipeline, as string-keyed policy specs:
/// rewriting flow (pass::rewrites()), node-selection policy
/// (plim::selectors()), allocation policy (plim::allocators()), fault
/// scenario (fault::models(); `none` = no sweep), and the optional
/// maximum-write cap.
///
/// Configs built by make_config() or parse() are *normalized* — every
/// declared policy parameter is filled in (e.g. `effort=5`) — so equality is
/// semantic and canonical_key() is unique per behavior. Hand-assembled
/// configs can call normalized() to reach the same form.
struct PipelineConfig {
  util::PolicySpec rewrite{"none", {}};
  util::PolicySpec selection{"naive", {}};
  util::PolicySpec allocation{"lifo", {}};
  /// Fault scenario for the Monte-Carlo lifetime sweep; `none` (the
  /// default) runs no sweep and keeps canonical_key() byte-identical to
  /// pre-fault configs.
  util::PolicySpec fault{"none", {}};
  std::optional<std::uint64_t> max_writes;

  /// Rewriting effort — the `effort` parameter of the rewrite spec (0 when
  /// the flow does not declare one, e.g. `none`).
  [[nodiscard]] int effort() const;
  /// Sets the rewrite flow's effort parameter; ignored when the flow does
  /// not declare one.
  void set_effort(int effort);

  /// Canonical spec string, the program-cache key:
  ///   rewrite=endurance:effort=5,select=endurance,alloc=min_write,cap=100
  /// Fields in fixed order, policy parameters sorted by name; `cap` is
  /// omitted when unset and `fault` when it is `none`, so pre-fault keys
  /// (and the five paper presets) are unchanged.
  /// parse(canonical_key()) reproduces the config.
  [[nodiscard]] std::string canonical_key() const;

  /// The config with every policy validated against its registry and every
  /// declared parameter filled with its default.
  [[nodiscard]] PipelineConfig normalized() const;

  /// Parses a config spec: comma-separated `field=value` clauses with
  /// fields `rewrite`, `select`, `alloc`, `fault` (policy specs, see
  /// util::PolicySpec) and `cap` (unsigned, >= 3). The first clause may be
  /// a bare preset alias (see strategy_aliases()), which later clauses
  /// override:
  ///   full
  ///   full,cap=100
  ///   full,fault=stuck:rate=1e-4:seed=7:trials=32
  ///   rewrite=endurance:effort=5,select=wear_quota:quota=4,alloc=start_gap
  ///   rewrite=seq:passes=maj,dist,inv,inv3,select=endurance,alloc=min_write
  /// A comma separates clauses only when followed by `field=`; otherwise it
  /// belongs to the current policy parameter value, as in the seq flow's
  /// pass list above. Every policy is validated against its registry
  /// (unknown keys and parameters are hard errors).
  [[nodiscard]] static PipelineConfig parse(std::string_view spec);

  bool operator==(const PipelineConfig&) const = default;
};

/// Maps a strategy preset to its (normalized) pipeline configuration.
[[nodiscard]] PipelineConfig make_config(
    Strategy strategy, std::optional<std::uint64_t> max_writes = std::nullopt);

}  // namespace rlim::core
