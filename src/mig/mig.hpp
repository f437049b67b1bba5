#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mig/signal.hpp"

namespace rlim::mig {

/// Shared string pool: names stored back-to-back in one buffer with a
/// monotone exclusive-end offset table, so N names cost two allocations
/// total instead of N. Views are stable under append only up to the pool's
/// reallocation — callers hold indices, not views, across mutation.
class NamePool {
public:
  NamePool() = default;

  /// Wraps decoded sections (the store's bulk-read path). Validates that
  /// `ends` is monotone and consistent with `pool`'s size.
  static NamePool adopt(std::string pool, std::vector<std::uint32_t> ends);

  void append(std::string_view name) {
    pool_.append(name);
    ends_.push_back(static_cast<std::uint32_t>(pool_.size()));
  }

  [[nodiscard]] std::string_view view(std::size_t i) const {
    const auto end = ends_.at(i);
    const auto begin = i == 0 ? 0u : ends_[i - 1];
    return std::string_view(pool_).substr(begin, end - begin);
  }

  [[nodiscard]] std::size_t size() const { return ends_.size(); }

  void reserve(std::size_t names, std::size_t bytes) {
    ends_.reserve(names);
    pool_.reserve(bytes);
  }

  // Raw sections, for the store encoder.
  [[nodiscard]] const std::string& pool() const { return pool_; }
  [[nodiscard]] std::span<const std::uint32_t> ends() const { return ends_; }

private:
  std::string pool_;
  std::vector<std::uint32_t> ends_;
};

/// Majority-Inverter Graph [18], [20].
///
/// Node 0 is the constant-0 node; primary inputs follow (they must all be
/// created before the first gate); majority gates come last. Because gates
/// can only reference already-existing nodes and are never mutated in place,
/// the node array is always topologically sorted — every rewriting pass
/// produces a fresh graph.
///
/// `create_maj` applies the trivial Ω.M rules (duplicate or complementary
/// fanin pairs, which also covers constant folding) and structural hashing
/// over *sorted* fanins (Ω.C, commutativity, is free). Complement placement
/// is deliberately NOT canonicalized: the distribution of inverters over
/// edges is the degree of freedom that the endurance-aware Ω.I passes and
/// the RM3 cost model operate on.
///
/// Storage is arena/SoA: gate fanin triples live in one contiguous array
/// indexed by `gate - first_gate()`, names in shared string pools, and the
/// level / fanout-count / complement metadata in separate contiguous arrays
/// maintained incrementally as nodes are appended — so `levels()`,
/// `fanout_counts()`, `depth()` and `complement_edge_count()` are reads,
/// not traversals, and serialization is a handful of bulk copies.
class Mig {
public:
  Mig();

  // ---- construction -------------------------------------------------------

  /// Signal referencing the constant node with the given value.
  [[nodiscard]] static Signal get_constant(bool value) { return Signal::constant(value); }

  /// Creates a primary input. All PIs must be created before the first gate.
  Signal create_pi(std::string_view name = {});

  /// Creates (or strash-finds) a majority gate `⟨a b c⟩`.
  Signal create_maj(Signal a, Signal b, Signal c);

  // Derived operators, expressed over majority gates.
  Signal create_and(Signal a, Signal b) { return create_maj(get_constant(false), a, b); }
  Signal create_or(Signal a, Signal b) { return create_maj(get_constant(true), a, b); }
  Signal create_xor(Signal a, Signal b);
  /// `sel ? then_ : else_`
  Signal create_mux(Signal sel, Signal then_, Signal else_);

  /// Registers a primary output.
  void create_po(Signal s, std::string_view name = {});

  /// Pre-sizes the arenas (and the strash table) for a graph of known shape.
  void reserve(std::uint32_t pis, std::uint32_t gates, std::uint32_t pos);

  /// Everything needed to reconstitute a graph from bulk storage.
  struct RawGraph {
    std::uint32_t num_pis = 0;
    std::vector<std::array<Signal, 3>> fanins;  ///< per gate, topological
    std::vector<Signal> pos;
    NamePool pi_names;  ///< one name per PI
    NamePool po_names;  ///< one name per PO
  };

  /// Builds a graph directly from decoded sections — the store's zero-copy
  /// load path. Validates everything `create_maj`/`create_po` would have
  /// enforced on a replay (sorted non-trivial fanins, topological
  /// references, no duplicate gates, name counts) and throws rlim::Error on
  /// violation, then derives the metadata arrays in one pass. The strash
  /// table is built eagerly (reserved up front) so `find_maj` behaves
  /// identically on adopted and incrementally-built graphs.
  [[nodiscard]] static Mig adopt_raw(RawGraph&& raw);

  // ---- structure -----------------------------------------------------------

  [[nodiscard]] std::uint32_t num_nodes() const {
    return 1 + num_pis_ + static_cast<std::uint32_t>(fanins_.size());
  }
  [[nodiscard]] std::uint32_t num_pis() const { return num_pis_; }
  [[nodiscard]] std::uint32_t num_pos() const { return static_cast<std::uint32_t>(pos_.size()); }
  [[nodiscard]] std::uint32_t num_gates() const { return static_cast<std::uint32_t>(fanins_.size()); }

  [[nodiscard]] bool is_constant(std::uint32_t node) const { return node == 0; }
  [[nodiscard]] bool is_pi(std::uint32_t node) const { return node >= 1 && node <= num_pis_; }
  [[nodiscard]] bool is_gate(std::uint32_t node) const {
    return node > num_pis_ && node < num_nodes();
  }
  /// Index of the first gate node (== 1 + num_pis()).
  [[nodiscard]] std::uint32_t first_gate() const { return num_pis_ + 1; }

  /// Fanins of a gate node.
  [[nodiscard]] const std::array<Signal, 3>& fanins(std::uint32_t gate) const;

  [[nodiscard]] std::span<const Signal> pos() const { return pos_; }
  [[nodiscard]] Signal po_at(std::uint32_t i) const { return pos_.at(i); }

  [[nodiscard]] std::string_view pi_name(std::uint32_t i) const { return pi_names_.view(i); }
  [[nodiscard]] std::string_view po_name(std::uint32_t i) const { return po_names_.view(i); }

  // Raw arena sections, for the store encoder (and tests).
  [[nodiscard]] std::span<const std::array<Signal, 3>> gate_fanins() const { return fanins_; }
  [[nodiscard]] const NamePool& pi_names() const { return pi_names_; }
  [[nodiscard]] const NamePool& po_names() const { return po_names_; }

  /// Strash lookup without node creation. Returns the existing signal for
  /// `⟨a b c⟩` after trivial simplification / sorting, or nullopt.
  [[nodiscard]] std::optional<Signal> find_maj(Signal a, Signal b, Signal c) const;

  // ---- analysis ------------------------------------------------------------

  /// Per-node reference count: fanin references from gates plus PO references.
  [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const { return fanout_counts_; }

  /// Per-node list of referencing gate indices (PO references not included).
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> fanout_lists() const;

  /// Topological levels: constant and PIs are level 0; a gate is
  /// 1 + max(level of fanins).
  [[nodiscard]] const std::vector<std::uint32_t>& levels() const { return levels_; }

  /// Depth = maximum level over PO-driving nodes.
  [[nodiscard]] std::uint32_t depth() const;

  /// Number of complemented fanins of a gate, not counting constants
  /// (constants are free for RM3 in either polarity).
  [[nodiscard]] int complement_count(std::uint32_t gate) const;

  /// Total complemented gate-fanin edges on non-constant fanins.
  [[nodiscard]] std::size_t complement_edge_count() const { return complement_edges_; }

  /// Gate nodes reachable from the POs (dead gates excluded).
  [[nodiscard]] std::vector<bool> reachable_from_pos() const;

  /// Rebuilds the graph keeping only PO-reachable logic (re-strashed and
  /// re-simplified; PI/PO profile and names preserved).
  [[nodiscard]] Mig cleanup() const;

  /// Stable 64-bit content hash of the graph *structure*: PI count, gate
  /// fanins in topological order, and PO signals. PI/PO names are excluded,
  /// so two graphs describing the same netlist hash equal regardless of
  /// labeling. Byte-order independent; suitable as a cache key (FNV-1a, not
  /// cryptographic).
  [[nodiscard]] std::uint64_t fingerprint() const;

private:
  /// Appends a validated, sorted, non-trivial gate and maintains the
  /// metadata arrays. Returns the new node index.
  std::uint32_t append_gate(const std::array<Signal, 3>& fanin);

  // Flat open-addressing strash index over the fanin arena: each slot holds
  // a gate index (0 = empty — node 0 is the constant, never a gate), and
  // the key is read back from fanins_, so the table is a bare u32 array.
  // Power-of-two sized, linear probing, grown at 50% load. An insert is a
  // hash + a handful of contiguous probes, which is what makes the eager
  // rebuild in adopt_raw affordable on the hot load path.
  [[nodiscard]] static std::uint64_t strash_hash(
      const std::array<Signal, 3>& fanin);
  /// Slot holding `fanin`'s gate, or the empty slot where it would insert.
  [[nodiscard]] std::uint32_t* strash_locate(
      const std::array<Signal, 3>& fanin);
  [[nodiscard]] const std::uint32_t* strash_locate(
      const std::array<Signal, 3>& fanin) const;
  /// Ensures capacity for one more entry (rehashes from fanins_ on growth).
  void strash_reserve_one();
  void strash_rebuild(std::size_t capacity);

  std::vector<std::array<Signal, 3>> fanins_;  ///< per gate: node first_gate()+i
  std::uint32_t num_pis_ = 0;
  std::vector<Signal> pos_;
  NamePool pi_names_;
  NamePool po_names_;

  // Derived metadata, maintained incrementally (append-only graph).
  std::vector<std::uint32_t> levels_;          ///< per node
  std::vector<std::uint32_t> fanout_counts_;   ///< per node (incl. PO refs)
  std::vector<std::uint8_t> complement_counts_;  ///< per gate
  std::size_t complement_edges_ = 0;

  std::vector<std::uint32_t> strash_slots_;  ///< power-of-two table, 0 = empty
  std::size_t strash_entries_ = 0;
};

}  // namespace rlim::mig
