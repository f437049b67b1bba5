#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "pass/manager.hpp"
#include "util/registry.hpp"
#include "util/spec.hpp"

namespace rlim::pass {

/// Splits a comma-separated pass list ("maj,dist,inv3") into its elements.
/// Rejects empty lists and empty elements; element validity against the
/// registry is checked by make_manager.
[[nodiscard]] std::vector<std::string> split_pass_list(std::string_view list);

/// Builds a PassManager from a `seq` parameter set: `list` as accepted by
/// split_pass_list (each element a bare pass key — `:` already separates
/// spec parameters, so passes run with their declared defaults), `until` an
/// optional pass key limiting every cycle to the prefix ending at its first
/// occurrence. Throws rlim::Error for unknown passes or an `until` key
/// absent from the list.
[[nodiscard]] PassManager make_manager(std::string_view list,
                                       std::string_view until = {});

/// One of the paper's rewriting flows: a named pass sequence.
struct PaperFlow {
  std::string_view key;      ///< rewrites() key
  std::string_view summary;  ///< what `rlim policies` prints
  std::string_view passes;   ///< pass keys run in order each cycle
};

/// The paper flows, in registration order — the single source of their
/// pass lists. rewrites() registers each one with an `effort` parameter and
/// runs it through a PassManager, so `rewrite=endurance` and
/// `rewrite=seq:passes=<the endurance list>` are the same code path.
inline constexpr PaperFlow kPaperFlows[] = {
    // Algorithm 1: Ω.M; Ω.D(R→L); Ω.A; Ψ.C; Ω.M; Ω.D(R→L); Ω.I(R→L)(1–3);
    // Ω.I(R→L), repeated `effort` times.
    {"plim21", "paper Algorithm 1 — the original PLiM compiler flow [21]",
     "maj,dist,"    // step 2
     "assoc,comp,"  // step 3
     "maj,dist,"    // step 4
     "inv,"         // step 5
     "inv3"},       // step 6
    // Algorithm 2: Ψ.C is dropped (it destroys the RM3-ideal
    // single-complemented-edge pattern) and Ω.A is sandwiched between
    // inverter-propagation passes.
    {"endurance", "paper Algorithm 2 — endurance-aware rewriting",
     "maj,dist,"  // step 2
     "inv,"       // step 3
     "inv3,"      // step 4
     "assoc,"     // step 5
     "inv,"       // step 6
     "inv3,"      // step 7
     "maj,dist,"  // step 8
     "inv3"},     // step 9
    // The §III-B.4 future-work direction: Algorithm 2 with Ω.A replaced by
    // level balancing, keeping level differences between connected nodes
    // low to shorten storage durations.
    {"level_balanced",
     "Algorithm 2 + level balancing (the paper's §III-B.4 direction)",
     "maj,dist,inv,inv3,"
     "relief,"  // §III-B.4 objective
     "inv,inv3,maj,dist,inv3"},
};

/// Pass list of the paper flow registered as `key` (throws rlim::Error for
/// any other key).
[[nodiscard]] std::string_view paper_flow_passes(std::string_view key);

/// A rewriting flow instantiated from a registry spec: graph in, rewritten
/// graph out, telemetry into the optional stats sink.
using RewriteFn = std::function<mig::Mig(const mig::Mig&, mig::RewriteStats*)>;
using RewriteFactory = std::function<RewriteFn(const util::Params&)>;

/// Registry of rewriting flows, keyed for PipelineConfig specs. Built-ins:
///   none            compile the MIG as constructed (cleanup only)
///   plim21, endurance, level_balanced
///                   the kPaperFlows sequences (`effort`, default 5)
///   seq             any pass sequence:
///                   rewrite=seq:passes=maj,dist,...[:effort=N][:until=KEY]
/// Every flow but `none` runs through a PassManager: one initial cleanup,
/// then up to `effort` cycles with an early exit at the fixpoint. The seq
/// canonical key keeps the comma-separated value verbatim, so seq specs flow
/// unchanged through the pipeline cache, disk store, wire format, and
/// cluster CLI. Open for downstream registration.
[[nodiscard]] util::Registry<RewriteFactory>& rewrites();

/// Normalizes `spec` against rewrites() and constructs the flow.
[[nodiscard]] RewriteFn make_rewrite(const util::PolicySpec& spec);

}  // namespace rlim::pass
