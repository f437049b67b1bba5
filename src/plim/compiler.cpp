#include "plim/compiler.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <map>
#include <span>
#include <tuple>
#include <utility>

#include "util/error.hpp"

namespace rlim::plim {

CompilerOptions::CompilerOptions(util::PolicySpec select,
                                 util::PolicySpec alloc,
                                 std::optional<std::uint64_t> cap)
    : selector([select = std::move(select)] { return make_selector(select); }),
      allocator([alloc = std::move(alloc)] { return make_allocator(alloc); }),
      max_writes(cap) {}

namespace {

using mig::Mig;
using mig::Signal;

constexpr std::uint32_t kInfLevel = 0xffffffffu;

/// One in-flight compilation. Owns all mutable state; `run()` drives the
/// select → translate → release loop of [21] §III with the endurance hooks.
class Compilation {
public:
  Compilation(const Mig& graph, const CompilerOptions& options)
      : mig_(graph),
        selector_(options.selector()),
        allocator_(options.allocator(), options.max_writes),
        reachable_(graph.reachable_from_pos()),
        use_count_(graph.num_nodes(), 0),
        cell_of_(graph.num_nodes()),
        pending_(graph.num_nodes(), 0),
        fanout_level_(graph.num_nodes(), 0),
        key_of_(graph.num_nodes()) {
    require(selector_ != nullptr, "PlimCompiler: selector factory returned null");
  }

  CompileResult run() {
    analyze();
    bind_inputs();
    seed_candidates();
    while (live_candidates_ > 0) {
      const auto gate = pop_candidate();
      // Snapshot before translation: compute_gate consumes the fanins'
      // use counts, which would skew info.releasing for the notification.
      const auto info = candidate_info(gate);
      compute_gate(gate);
      if (selector_->on_compiled(info)) {
        refresh_all_candidates();
      }
    }
    materialize_outputs();
    return finish();
  }

private:
  // ---- static analysis ------------------------------------------------------

  void analyze() {
    const auto& levels = mig_.levels();
    const auto graph_depth = mig_.depth();
    for (std::uint32_t gate = mig_.first_gate(); gate < mig_.num_nodes(); ++gate) {
      if (!reachable_[gate]) {
        continue;
      }
      for (const auto fanin : mig_.fanins(gate)) {
        if (fanin.is_constant()) {
          continue;
        }
        ++use_count_[fanin.index()];
        fanout_level_[fanin.index()] =
            std::max(fanout_level_[fanin.index()], levels[gate]);
        if (mig_.is_gate(fanin.index())) {
          ++pending_[gate];
        }
      }
    }
    // Fanout lists in CSR form. So far use_count_ holds exactly the gate
    // references, i.e. each node's parent count.
    parent_begin_.resize(mig_.num_nodes() + 1);
    parent_begin_[0] = 0;
    for (std::uint32_t node = 0; node < mig_.num_nodes(); ++node) {
      parent_begin_[node + 1] = parent_begin_[node] + use_count_[node];
    }
    parents_.resize(parent_begin_.back());
    std::vector<std::uint32_t> next(parent_begin_.begin(), parent_begin_.end() - 1);
    for (std::uint32_t gate = mig_.first_gate(); gate < mig_.num_nodes(); ++gate) {
      if (!reachable_[gate]) {
        continue;
      }
      for (const auto fanin : mig_.fanins(gate)) {
        if (!fanin.is_constant()) {
          parents_[next[fanin.index()]++] = gate;
        }
      }
    }
    for (const auto po : mig_.pos()) {
      if (po.is_constant()) {
        continue;
      }
      ++use_count_[po.index()];
      // PO-driven cells stay blocked until the program ends — the farthest
      // possible fanout level (paper Fig. 2: "blocked RRAMs").
      fanout_level_[po.index()] = graph_depth + 1;
    }
  }

  [[nodiscard]] std::span<const std::uint32_t> parents_of(std::uint32_t node) const {
    return {parents_.data() + parent_begin_[node],
            parents_.data() + parent_begin_[node + 1]};
  }

  void bind_inputs() {
    for (std::uint32_t pi = 1; pi <= mig_.num_pis(); ++pi) {
      const auto cell = allocator_.add_live_cell();
      program_.bind_pi(cell);
      cell_of_[pi] = cell;
    }
    // Inputs whose data is never consumed are dead on arrival: their cells
    // join the free set immediately (in-memory operands are consumable).
    for (std::uint32_t pi = 1; pi <= mig_.num_pis(); ++pi) {
      if (use_count_[pi] == 0) {
        allocator_.release(*cell_of_[pi]);
        cell_of_[pi].reset();
      }
    }
  }

  // ---- candidate management -------------------------------------------------
  //
  // The candidates form a lazy-deletion binary min-heap: key_of_[gate] is a
  // pending gate's only live key, and a heap entry that differs from it is
  // stale and skipped when it surfaces. Keys end in the unique gate index, so
  // the order is total and the pop sequence is that of a sorted set.

  /// A Selector's 3-component priority plus the node index as the final
  /// tiebreaker — equal priorities resolve by construction order.
  using Key = std::array<std::uint32_t, 4>;

  /// RRAMs released by computing `gate`: distinct non-constant fanins whose
  /// value dies with this use (the in-place destination counts — its cell is
  /// recycled into the result).
  [[nodiscard]] std::uint32_t releasing_count(std::uint32_t gate) const {
    std::uint32_t count = 0;
    for (const auto fanin : mig_.fanins(gate)) {
      if (!fanin.is_constant() && use_count_[fanin.index()] == 1) {
        ++count;
      }
    }
    return count;
  }

  [[nodiscard]] CandidateInfo candidate_info(std::uint32_t gate) const {
    return {gate, releasing_count(gate), fanout_level_[gate]};
  }

  [[nodiscard]] Key make_key(std::uint32_t gate) {
    const auto priority = selector_->priority(candidate_info(gate));
    return {priority[0], priority[1], priority[2], gate};
  }

  void seed_candidates() {
    for (std::uint32_t gate = mig_.first_gate(); gate < mig_.num_nodes(); ++gate) {
      if (reachable_[gate] && pending_[gate] == 0) {
        insert_candidate(gate);
      }
    }
  }

  void push_candidate(const Key& key) {
    key_of_[key[3]] = key;
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  void insert_candidate(std::uint32_t gate) {
    push_candidate(make_key(gate));
    ++live_candidates_;
  }

  void refresh_candidate(std::uint32_t gate) {
    if (!key_of_[gate]) {
      return;
    }
    const auto key = make_key(gate);
    if (key != *key_of_[gate]) {
      push_candidate(key);
    }
  }

  /// Recomputes every pending candidate's key — requested by stateful
  /// selectors whose ranking shifted globally. Keeps one entry per live
  /// candidate (a key that changed and changed back has two) and drops the
  /// stale ones.
  void refresh_all_candidates() {
    std::size_t kept = 0;
    for (const auto& entry : heap_) {
      auto& live = key_of_[entry[3]];
      if (live && *live == entry) {
        live.reset();
        heap_[kept++] = entry;
      }
    }
    heap_.resize(kept);
    for (auto& entry : heap_) {
      entry = make_key(entry[3]);
      key_of_[entry[3]] = entry;
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  std::uint32_t pop_candidate() {
    for (;;) {
      assert(!heap_.empty());
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto key = heap_.back();
      heap_.pop_back();
      auto& live = key_of_[key[3]];
      if (live && *live == key) {
        live.reset();
        --live_candidates_;
        return key[3];
      }
    }
  }

  // ---- emission helpers -----------------------------------------------------

  void emit(const Instruction& instruction, bool is_gate_closer) {
    program_.append(instruction);
    allocator_.note_write(instruction.z);
    if (is_gate_closer) {
      ++gate_instructions_;
    } else {
      ++overhead_instructions_;
    }
  }

  [[nodiscard]] Cell cell_of(std::uint32_t node) const {
    assert(cell_of_[node] && "value of node is not resident");
    return *cell_of_[node];
  }

  /// Two-instruction idiom: fresh cell ← ¬value(node).
  /// `as_destination` reserves a third write for the closing RM3.
  Cell make_complement_copy(std::uint32_t node, bool as_destination) {
    const auto temp = allocator_.acquire(as_destination ? 3 : 2);
    emit(make_write_const(true, temp), false);
    emit(make_complement_copy_step(cell_of(node), temp), false);
    return temp;
  }

  /// Two-instruction idiom: fresh cell ← value(node) (always a destination).
  Cell make_copy(std::uint32_t node) {
    const auto temp = allocator_.acquire(3);
    emit(make_write_const(false, temp), false);
    emit(make_copy_step(cell_of(node), temp), false);
    return temp;
  }

  // ---- node translation ([21] with the endurance cost hooks) -----------------

  struct RoleCost {
    std::uint32_t instructions = 0;
    std::uint32_t cells = 0;
  };

  [[nodiscard]] RoleCost cost_as_a(Signal s) const {
    if (s.is_constant() || !s.is_complemented()) {
      return {};
    }
    return {2, 1};  // complement copy
  }

  [[nodiscard]] RoleCost cost_as_b(Signal s) const {
    if (s.is_constant() || s.is_complemented()) {
      return {};  // RM3 inverts B: a complemented fanin rides for free
    }
    return {2, 1};  // complement copy so that ¬B yields the plain literal
  }

  [[nodiscard]] bool in_place_destination_ok(Signal s) const {
    if (s.is_constant() || s.is_complemented()) {
      return false;
    }
    const auto node = s.index();
    // Last use of the value, and the cell still has write budget (the
    // maximum write count strategy rejects saturated cells here).
    return use_count_[node] == 1 && cell_of_[node] &&
           allocator_.writable(*cell_of_[node]);
  }

  [[nodiscard]] RoleCost cost_as_z(Signal s) const {
    if (s.is_constant()) {
      return {1, 1};  // write the constant into a fresh cell
    }
    if (s.is_complemented()) {
      return {2, 1};  // complement copy becomes the destination
    }
    if (in_place_destination_ok(s)) {
      return {};
    }
    return {2, 1};  // plain copy preserves the multi-fanout value
  }

  void compute_gate(std::uint32_t gate) {
    const auto& fanin = mig_.fanins(gate);

    // Choose the cheapest (instructions, cells) role assignment.
    static constexpr std::array<std::array<int, 3>, 6> kPermutations{{
        {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
    int best = -1;
    std::uint64_t best_cost = ~0ULL;
    for (int p = 0; p < 6; ++p) {
      const auto [ai, bi, zi] = std::tuple(kPermutations[p][0], kPermutations[p][1],
                                           kPermutations[p][2]);
      const auto ca = cost_as_a(fanin[ai]);
      const auto cb = cost_as_b(fanin[bi]);
      const auto cz = cost_as_z(fanin[zi]);
      const std::uint64_t cost =
          (static_cast<std::uint64_t>(ca.instructions + cb.instructions +
                                      cz.instructions)
           << 32) |
          ((ca.cells + cb.cells + cz.cells) << 8) | static_cast<std::uint32_t>(p);
      if (cost < best_cost) {
        best_cost = cost;
        best = p;
      }
    }
    const auto [ai, bi, zi] =
        std::tuple(kPermutations[best][0], kPermutations[best][1],
                   kPermutations[best][2]);

    std::array<Cell, 2> temps{};
    std::size_t num_temps = 0;

    // Operand A — read as-is.
    Operand op_a;
    {
      const auto s = fanin[ai];
      if (s.is_constant()) {
        op_a = Operand::constant(s.constant_value());
      } else if (!s.is_complemented()) {
        op_a = Operand::cell(cell_of(s.index()));
      } else {
        const auto temp = make_complement_copy(s.index(), false);
        temps[num_temps++] = temp;
        op_a = Operand::cell(temp);
      }
    }

    // Operand B — RM3 applies ¬B.
    Operand op_b;
    {
      const auto s = fanin[bi];
      if (s.is_constant()) {
        op_b = Operand::constant(!s.constant_value());
      } else if (s.is_complemented()) {
        op_b = Operand::cell(cell_of(s.index()));
      } else {
        const auto temp = make_complement_copy(s.index(), false);
        temps[num_temps++] = temp;
        op_b = Operand::cell(temp);
      }
    }

    // Destination Z — must start out holding the literal's value.
    Cell dest = 0;
    std::optional<std::uint32_t> consumed_node;
    {
      const auto s = fanin[zi];
      if (s.is_constant()) {
        dest = allocator_.acquire(2);
        emit(make_write_const(s.constant_value(), dest), false);
      } else if (s.is_complemented()) {
        dest = make_complement_copy(s.index(), true);
      } else if (in_place_destination_ok(s)) {
        dest = cell_of(s.index());
        consumed_node = s.index();
      } else {
        dest = make_copy(s.index());
      }
    }

    emit(Instruction{op_a, op_b, dest}, true);
    cell_of_[gate] = dest;

    for (std::size_t i = 0; i < num_temps; ++i) {
      allocator_.release(temps[i]);
    }

    // Consume fanin references; release dead values; propagate the
    // releasing-count change to candidate keys (paper: the free set and the
    // node priorities evolve together).
    for (const auto s : fanin) {
      if (s.is_constant()) {
        continue;
      }
      const auto node = s.index();
      assert(use_count_[node] > 0);
      --use_count_[node];
      if (use_count_[node] == 0) {
        if (consumed_node && *consumed_node == node) {
          cell_of_[node].reset();  // ownership moved into the result
        } else if (cell_of_[node]) {
          allocator_.release(*cell_of_[node]);
          cell_of_[node].reset();
        }
      } else if (use_count_[node] == 1) {
        for (const auto parent : parents_of(node)) {
          refresh_candidate(parent);
        }
      }
    }

    // Newly computable parents join the candidate set.
    for (const auto parent : parents_of(gate)) {
      assert(pending_[parent] > 0);
      if (--pending_[parent] == 0) {
        insert_candidate(parent);
      }
    }
  }

  // ---- primary outputs ------------------------------------------------------

  void materialize_outputs() {
    std::map<std::uint32_t, Cell> inverted_cell;
    for (const auto po : mig_.pos()) {
      if (po.is_constant()) {
        const auto cell = allocator_.acquire(1);
        emit(make_write_const(po.constant_value(), cell), false);
        program_.bind_po(cell);
        continue;
      }
      const auto node = po.index();
      if (!po.is_complemented()) {
        program_.bind_po(cell_of(node));
        continue;
      }
      const auto it = inverted_cell.find(node);
      if (it != inverted_cell.end()) {
        program_.bind_po(it->second);
        continue;
      }
      const auto cell = make_complement_copy(node, false);
      inverted_cell.emplace(node, cell);
      program_.bind_po(cell);
    }
  }

  CompileResult finish() {
    program_.set_num_cells(allocator_.num_cells());
    CompileResult result;
    result.num_cells = allocator_.num_cells();
    result.write_stats = util::compute_stats(allocator_.write_counts());
    result.gate_instructions = gate_instructions_;
    result.overhead_instructions = overhead_instructions_;
    result.quarantined_cells = allocator_.quarantined_count();
    result.program = std::move(program_);
    return result;
  }

  // ---- state ---------------------------------------------------------------

  const Mig& mig_;
  SelectorPtr selector_;
  CellAllocator allocator_;
  Program program_;
  std::vector<bool> reachable_;
  std::vector<std::uint32_t> use_count_;
  std::vector<std::optional<Cell>> cell_of_;
  std::vector<std::uint32_t> parent_begin_;  ///< CSR offsets into parents_
  std::vector<std::uint32_t> parents_;       ///< reachable consumer gates
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> fanout_level_;
  std::vector<std::optional<Key>> key_of_;
  std::vector<Key> heap_;
  std::size_t live_candidates_ = 0;
  std::size_t gate_instructions_ = 0;
  std::size_t overhead_instructions_ = 0;
};

}  // namespace

PlimCompiler::PlimCompiler(CompilerOptions options)
    : options_(std::move(options)) {
  require(options_.selector != nullptr && options_.allocator != nullptr,
          "PlimCompiler: options need selector and allocator factories");
}

CompileResult PlimCompiler::compile(const mig::Mig& graph) const {
  Compilation compilation(graph, options_);
  return compilation.run();
}

}  // namespace rlim::plim
