#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "pass/pass.hpp"

namespace rlim::pass {

/// Where in a run a dump hook fires: after pass `step` (0-based position in
/// the executed sequence) of cycle `cycle` (0-based).
struct DumpContext {
  int cycle = 0;
  std::size_t step = 0;
  std::string_view pass;
};

/// Observer invoked with the graph state after every executed pass — the
/// dump-after-pass hook (see pass/dump.hpp for ready-made sinks).
using DumpHook = std::function<void(const mig::Mig&, const DumpContext&)>;

/// Runs an ordered pass sequence — the one rewrite engine behind every
/// registered flow but `none` (pass/seq.hpp): one initial cleanup, then up
/// to `effort` cycles over the sequence with an early exit once a full cycle
/// neither fires a rule nor changes the gate count.
///
/// Configuration (add/until/on_dump) is not thread-safe; configure first,
/// then run() is const and can execute on any number of threads.
class PassManager {
public:
  /// Appends a pass to the sequence (builder style).
  PassManager& add(PassPtr pass);

  /// Limits every cycle to the prefix ending at the first pass named `name`
  /// (inclusive) — running until pass k is equivalent to running the
  /// k-prefix sequence. Empty clears the limit. run() throws if the name
  /// matches no pass in the sequence.
  PassManager& until(std::string name);

  /// Installs the dump-after-pass observer (empty hook disables dumping).
  PassManager& on_dump(DumpHook hook);

  [[nodiscard]] const std::vector<PassPtr>& sequence() const {
    return sequence_;
  }

  /// Rewrites `graph`, filling `stats` (totals and the per-pass breakdown,
  /// one entry per executed pipeline position) when non-null.
  [[nodiscard]] mig::Mig run(const mig::Mig& graph, int effort,
                             mig::RewriteStats* stats = nullptr) const;

private:
  std::vector<PassPtr> sequence_;
  std::string until_;
  DumpHook dump_;
};

}  // namespace rlim::pass
