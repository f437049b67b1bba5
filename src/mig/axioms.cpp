#include "mig/axioms.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>

namespace rlim::mig {

namespace {

/// Incremental graph rebuilder shared by all passes. Gates are visited in
/// topological (index) order; visited gates record their replacement signal
/// in `map`, so later gates and the POs pick transformations up
/// transparently. Gates absorbed into a fused replacement are skipped.
class Rebuilder {
public:
  explicit Rebuilder(const Mig& old) : old_(old), map_(old.num_nodes()), mapped_(old.num_nodes(), false) {
    // Most passes change a small fraction of the graph, so the rebuilt
    // arenas end up near the old sizes — pre-sizing removes the growth
    // reallocations from every rewrite cycle.
    fresh_.reserve(old.num_pis(), old.num_gates(), old.num_pos());
    map_[0] = Signal::constant(false);
    mapped_[0] = true;
    for (std::uint32_t pi = 1; pi <= old.num_pis(); ++pi) {
      map_[pi] = fresh_.create_pi(old.pi_name(pi - 1));
      mapped_[pi] = true;
    }
  }

  [[nodiscard]] Signal remap(Signal s) const {
    assert(mapped_[s.index()] && "reference to an absorbed/unmapped node");
    return map_[s.index()] ^ s.is_complemented();
  }

  void set_map(std::uint32_t old_gate, Signal replacement) {
    map_[old_gate] = replacement;
    mapped_[old_gate] = true;
  }

  /// Default rebuild of one gate through the strashing constructor.
  void rebuild_default(std::uint32_t gate) {
    const auto& fanin = old_.fanins(gate);
    set_map(gate, fresh_.create_maj(remap(fanin[0]), remap(fanin[1]), remap(fanin[2])));
  }

  Mig finish() {
    for (std::uint32_t i = 0; i < old_.num_pos(); ++i) {
      fresh_.create_po(remap(old_.po_at(i)), old_.po_name(i));
    }
    return std::move(fresh_);
  }

  [[nodiscard]] Mig& fresh() { return fresh_; }

private:
  const Mig& old_;
  Mig fresh_;
  std::vector<Signal> map_;
  std::vector<bool> mapped_;
};

/// Trivial Ω.M simplification oracle for a candidate triple (no graph access).
bool triple_simplifies(Signal a, Signal b, Signal c) {
  return a == b || a == !b || a == c || a == !c || b == c || b == !c;
}

/// Complemented fanins among a candidate triple, constants excluded.
int noncost_complements(std::span<const Signal> fanins) {
  int count = 0;
  for (const auto f : fanins) {
    if (!f.is_constant() && f.is_complemented()) {
      ++count;
    }
  }
  return count;
}

}  // namespace

PassResult pass_majority(const Mig& mig) {
  const auto reachable = mig.reachable_from_pos();
  Rebuilder rebuild(mig);
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (reachable[gate]) {
      rebuild.rebuild_default(gate);
    }
  }
  auto fresh = rebuild.finish();
  const auto removed = mig.num_gates() >= fresh.num_gates()
                           ? mig.num_gates() - fresh.num_gates()
                           : 0;
  return PassResult{std::move(fresh), removed};
}

PassResult pass_distributivity_rl(const Mig& mig) {
  const auto reachable = mig.reachable_from_pos();
  const auto fanouts = mig.fanout_counts();

  struct Plan {
    Signal x, y, u, v, z;
  };
  std::vector<std::optional<Plan>> plans(mig.num_nodes());
  std::vector<bool> used(mig.num_nodes(), false);
  std::vector<bool> absorbed(mig.num_nodes(), false);
  std::size_t applications = 0;

  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || used[gate]) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    for (int i = 0; i < 3 && !plans[gate]; ++i) {
      for (int j = i + 1; j < 3 && !plans[gate]; ++j) {
        const auto si = fanin[i];
        const auto sj = fanin[j];
        const auto gi = si.index();
        const auto gj = sj.index();
        if (!mig.is_gate(gi) || !mig.is_gate(gj) || gi == gj) {
          continue;
        }
        if (si.is_complemented() != sj.is_complemented()) {
          continue;
        }
        if (fanouts[gi] != 1 || fanouts[gj] != 1 || used[gi] || used[gj]) {
          continue;
        }
        const bool flip = si.is_complemented();
        std::array<Signal, 3> effective_i{};
        std::array<Signal, 3> effective_j{};
        for (int k = 0; k < 3; ++k) {
          effective_i[k] = mig.fanins(gi)[k] ^ flip;
          effective_j[k] = mig.fanins(gj)[k] ^ flip;
        }
        // Intersect the effective fanin sets (each holds 3 distinct signals).
        std::vector<Signal> common;
        std::optional<Signal> only_i;
        std::optional<Signal> only_j;
        for (const auto s : effective_i) {
          if (std::find(effective_j.begin(), effective_j.end(), s) != effective_j.end()) {
            common.push_back(s);
          } else {
            only_i = s;
          }
        }
        if (common.size() != 2 || !only_i) {
          continue;
        }
        for (const auto s : effective_j) {
          if (std::find(effective_i.begin(), effective_i.end(), s) == effective_i.end()) {
            only_j = s;
          }
        }
        assert(only_j);
        const auto z = fanin[3 - i - j];
        plans[gate] = Plan{common[0], common[1], *only_i, *only_j, z};
        used[gate] = used[gi] = used[gj] = true;
        absorbed[gi] = absorbed[gj] = true;
        ++applications;
      }
    }
  }

  Rebuilder rebuild(mig);
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || absorbed[gate]) {
      continue;
    }
    if (const auto& plan = plans[gate]) {
      auto& fresh = rebuild.fresh();
      const auto inner = fresh.create_maj(rebuild.remap(plan->u), rebuild.remap(plan->v),
                                          rebuild.remap(plan->z));
      rebuild.set_map(gate, fresh.create_maj(rebuild.remap(plan->x),
                                             rebuild.remap(plan->y), inner));
    } else {
      rebuild.rebuild_default(gate);
    }
  }
  return PassResult{rebuild.finish(), applications};
}

PassResult pass_associativity(const Mig& mig) {
  const auto reachable = mig.reachable_from_pos();
  const auto fanouts = mig.fanout_counts();

  struct Plan {
    Signal y, u, x, z;  // new inner = ⟨y u x⟩, new outer = ⟨z u inner⟩
  };
  std::vector<std::optional<Plan>> plans(mig.num_nodes());
  std::vector<bool> used(mig.num_nodes(), false);
  std::vector<bool> absorbed(mig.num_nodes(), false);
  std::size_t applications = 0;

  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || used[gate]) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3 && !plans[gate]; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || used[child]) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      const auto& inner = mig.fanins(child);
      for (int uo = 0; uo < 2 && !plans[gate]; ++uo) {
        const auto u = outer_rest[uo];
        const auto x = outer_rest[1 - uo];
        const auto u_pos = std::find(inner.begin(), inner.end(), u);
        if (u_pos == inner.end()) {
          continue;
        }
        std::vector<Signal> inner_rest;
        for (const auto s : inner) {
          if (s != u) {
            inner_rest.push_back(s);
          }
        }
        if (inner_rest.size() != 2) {
          continue;  // u appears more than once (cannot happen after Ω.M)
        }
        for (int zo = 0; zo < 2 && !plans[gate]; ++zo) {
          const auto z = inner_rest[zo];   // moved out
          const auto y = inner_rest[1 - zo];
          // A strash hit only helps when it shares an *existing* gate — a hit
          // on the inner gate being rewritten is a degenerate no-op match.
          const auto hit = mig.find_maj(y, u, x);
          const bool shares = hit && hit->index() != child;
          if (triple_simplifies(y, u, x) || shares) {
            plans[gate] = Plan{y, u, x, z};
            used[gate] = used[child] = true;
            absorbed[child] = true;
            ++applications;
          }
        }
      }
    }
  }

  Rebuilder rebuild(mig);
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || absorbed[gate]) {
      continue;
    }
    if (const auto& plan = plans[gate]) {
      auto& fresh = rebuild.fresh();
      const auto inner = fresh.create_maj(rebuild.remap(plan->y), rebuild.remap(plan->u),
                                          rebuild.remap(plan->x));
      rebuild.set_map(gate, fresh.create_maj(rebuild.remap(plan->z),
                                             rebuild.remap(plan->u), inner));
    } else {
      rebuild.rebuild_default(gate);
    }
  }
  return PassResult{rebuild.finish(), applications};
}

PassResult pass_comp_assoc(const Mig& mig) {
  const auto reachable = mig.reachable_from_pos();
  const auto fanouts = mig.fanout_counts();

  struct Plan {
    Signal x, u;                  // outer fanins kept
    std::array<Signal, 3> inner;  // new inner fanins (x̄ replaced by u)
  };
  std::vector<std::optional<Plan>> plans(mig.num_nodes());
  std::vector<bool> used(mig.num_nodes(), false);
  std::vector<bool> absorbed(mig.num_nodes(), false);
  std::size_t applications = 0;

  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || used[gate]) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3 && !plans[gate]; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || used[child]) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      const auto& inner = mig.fanins(child);
      for (int xo = 0; xo < 2 && !plans[gate]; ++xo) {
        const auto x = outer_rest[xo];
        const auto u = outer_rest[1 - xo];
        const auto match = std::find(inner.begin(), inner.end(), !x);
        if (match == inner.end()) {
          continue;
        }
        std::array<Signal, 3> replaced = inner;
        replaced[static_cast<std::size_t>(match - inner.begin())] = u;
        const auto hit = mig.find_maj(replaced[0], replaced[1], replaced[2]);
        const bool exists = hit && hit->index() != child;
        const bool fewer_complements =
            noncost_complements(replaced) < noncost_complements(inner);
        if (exists || fewer_complements) {
          plans[gate] = Plan{x, u, replaced};
          used[gate] = used[child] = true;
          absorbed[child] = true;
          ++applications;
        }
      }
    }
  }

  Rebuilder rebuild(mig);
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || absorbed[gate]) {
      continue;
    }
    if (const auto& plan = plans[gate]) {
      auto& fresh = rebuild.fresh();
      const auto inner =
          fresh.create_maj(rebuild.remap(plan->inner[0]), rebuild.remap(plan->inner[1]),
                           rebuild.remap(plan->inner[2]));
      rebuild.set_map(gate, fresh.create_maj(rebuild.remap(plan->x),
                                             rebuild.remap(plan->u), inner));
    } else {
      rebuild.rebuild_default(gate);
    }
  }
  return PassResult{rebuild.finish(), applications};
}

namespace {

PassResult flip_pass(const Mig& mig, int min_complements) {
  const auto reachable = mig.reachable_from_pos();
  Rebuilder rebuild(mig);
  std::size_t applications = 0;
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate]) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    const std::array<Signal, 3> mapped{rebuild.remap(fanin[0]), rebuild.remap(fanin[1]),
                                       rebuild.remap(fanin[2])};
    if (noncost_complements(mapped) >= min_complements) {
      // ⟨x̄ȳz̄⟩ = ¬⟨xyz⟩ — flip all three fanins, complement the output; the
      // complement cascades to fanouts through the rebuild map.
      const auto flipped =
          rebuild.fresh().create_maj(!mapped[0], !mapped[1], !mapped[2]);
      rebuild.set_map(gate, !flipped);
      ++applications;
    } else {
      rebuild.set_map(gate,
                      rebuild.fresh().create_maj(mapped[0], mapped[1], mapped[2]));
    }
  }
  return PassResult{rebuild.finish(), applications};
}

}  // namespace

PassResult pass_inv_reduce(const Mig& mig) { return flip_pass(mig, 2); }

PassResult pass_inv_three(const Mig& mig) { return flip_pass(mig, 3); }

PassResult pass_level_balance(const Mig& mig) {
  const auto reachable = mig.reachable_from_pos();
  const auto fanouts = mig.fanout_counts();
  const auto& levels = mig.levels();

  struct Plan {
    Signal y, u, x, z;  // new inner = ⟨y u x⟩, new outer = ⟨z u inner⟩
  };
  std::vector<std::optional<Plan>> plans(mig.num_nodes());
  std::vector<bool> used(mig.num_nodes(), false);
  std::vector<bool> absorbed(mig.num_nodes(), false);
  std::size_t applications = 0;

  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || used[gate]) {
      continue;
    }
    const auto& fanin = mig.fanins(gate);
    for (int k = 0; k < 3 && !plans[gate]; ++k) {
      const auto child_ref = fanin[k];
      const auto child = child_ref.index();
      if (!mig.is_gate(child) || child_ref.is_complemented() ||
          fanouts[child] != 1 || used[child]) {
        continue;
      }
      const std::array<Signal, 2> outer_rest{fanin[(k + 1) % 3], fanin[(k + 2) % 3]};
      const auto& inner = mig.fanins(child);
      for (int uo = 0; uo < 2 && !plans[gate]; ++uo) {
        const auto u = outer_rest[uo];
        const auto x = outer_rest[1 - uo];
        if (std::find(inner.begin(), inner.end(), u) == inner.end()) {
          continue;
        }
        std::vector<Signal> inner_rest;
        for (const auto s : inner) {
          if (s != u) {
            inner_rest.push_back(s);
          }
        }
        if (inner_rest.size() != 2) {
          continue;
        }
        // Move the deeper inner operand out when it beats the outer one:
        // its path through this cone shortens by one level.
        const auto deeper =
            levels[inner_rest[0].index()] >= levels[inner_rest[1].index()] ? 0 : 1;
        const auto z = inner_rest[deeper];
        const auto y = inner_rest[1 - deeper];
        if (levels[z.index()] > levels[x.index()]) {
          plans[gate] = Plan{y, u, x, z};
          used[gate] = used[child] = true;
          absorbed[child] = true;
          ++applications;
        }
      }
    }
  }

  Rebuilder rebuild(mig);
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    if (!reachable[gate] || absorbed[gate]) {
      continue;
    }
    if (const auto& plan = plans[gate]) {
      auto& fresh = rebuild.fresh();
      const auto inner = fresh.create_maj(rebuild.remap(plan->y), rebuild.remap(plan->u),
                                          rebuild.remap(plan->x));
      rebuild.set_map(gate, fresh.create_maj(rebuild.remap(plan->z),
                                             rebuild.remap(plan->u), inner));
    } else {
      rebuild.rebuild_default(gate);
    }
  }
  return PassResult{rebuild.finish(), applications};
}

}  // namespace rlim::mig
