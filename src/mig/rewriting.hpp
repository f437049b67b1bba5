#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rlim::mig {

/// Telemetry of one pipeline position in a rewriting run. `name` is the
/// rlim::pass registry key ("maj", "dist", ...); the deltas are signed
/// after-minus-before differences summed over every cycle the pass executed,
/// so a shrinking pass accumulates a negative gate_delta. `wall_ns` is
/// wall-clock measurement — everything else is deterministic for a given
/// input graph and sequence.
struct PassStats {
  std::string name;
  std::uint64_t runs = 0;             ///< times the pass executed
  std::uint64_t applications = 0;     ///< rule firings, summed over runs
  std::int64_t gate_delta = 0;        ///< gate-count delta, summed
  std::int64_t complement_delta = 0;  ///< complemented-fanin-edge delta
  std::int64_t depth_delta = 0;       ///< graph-depth (level) delta
  std::uint64_t wall_ns = 0;          ///< accumulated wall time

  bool operator==(const PassStats&) const = default;
};

/// Telemetry of one rewriting run (per cycle and total), filled by
/// pass::PassManager. `per_pass` holds one entry per pipeline position, in
/// execution order. The store and the wire format serialize it alongside
/// the rewritten graph.
struct RewriteStats {
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;
  std::size_t initial_complement_edges = 0;
  std::size_t final_complement_edges = 0;
  int cycles_run = 0;
  std::size_t total_applications = 0;
  std::vector<PassStats> per_pass;
};

}  // namespace rlim::mig
