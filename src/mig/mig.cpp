#include "mig/mig.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rlim::mig {

// The bulk store/fingerprint paths treat the fanin arena as a flat
// little-endian u32 stream; these pin down the layout they rely on.
static_assert(std::is_trivially_copyable_v<Signal> && sizeof(Signal) == 4);
static_assert(sizeof(std::array<Signal, 3>) == 12);

NamePool NamePool::adopt(std::string pool, std::vector<std::uint32_t> ends) {
  std::uint32_t previous = 0;
  for (const auto end : ends) {
    require(end >= previous, "NamePool: offset table not monotone");
    previous = end;
  }
  require(previous == pool.size(), "NamePool: offset table inconsistent with pool size");
  NamePool result;
  result.pool_ = std::move(pool);
  result.ends_ = std::move(ends);
  return result;
}

std::uint64_t Mig::strash_hash(const std::array<Signal, 3>& fanin) {
  // Two splitmix64 rounds over the packed raws: cheap, stateless, and well
  // mixed enough for a power-of-two table with linear probing.
  std::uint64_t state = (static_cast<std::uint64_t>(fanin[0].raw()) << 32) |
                        fanin[1].raw();
  std::uint64_t hash = util::splitmix64(state);
  state = hash ^ fanin[2].raw();
  return util::splitmix64(state);
}

std::uint32_t* Mig::strash_locate(const std::array<Signal, 3>& fanin) {
  const auto mask = strash_slots_.size() - 1;
  auto slot = static_cast<std::size_t>(strash_hash(fanin)) & mask;
  while (true) {
    auto& entry = strash_slots_[slot];
    if (entry == 0 || fanins_[entry - first_gate()] == fanin) {
      return &entry;
    }
    slot = (slot + 1) & mask;
  }
}

const std::uint32_t* Mig::strash_locate(
    const std::array<Signal, 3>& fanin) const {
  return const_cast<Mig*>(this)->strash_locate(fanin);
}

void Mig::strash_rebuild(std::size_t capacity) {
  strash_slots_.assign(capacity, 0);
  for (std::uint32_t gate = first_gate(); gate < num_nodes(); ++gate) {
    *strash_locate(fanins_[gate - first_gate()]) = gate;
  }
}

void Mig::strash_reserve_one() {
  // Grow at 50% load; the minimum size keeps the mask math valid on the
  // first insert.
  if (strash_slots_.empty()) {
    strash_rebuild(64);
  } else if (2 * (strash_entries_ + 1) > strash_slots_.size()) {
    strash_rebuild(2 * strash_slots_.size());
  }
}

Mig::Mig() {
  levels_.push_back(0);  // node 0: constant 0
  fanout_counts_.push_back(0);
}

Signal Mig::create_pi(std::string_view name) {
  require(num_gates() == 0, "Mig: all PIs must be created before the first gate");
  ++num_pis_;
  if (name.empty()) {
    pi_names_.append("x" + std::to_string(num_pis_ - 1));
  } else {
    pi_names_.append(name);
  }
  levels_.push_back(0);
  fanout_counts_.push_back(0);
  return Signal::from_node(num_pis_);
}

void Mig::reserve(std::uint32_t pis, std::uint32_t gates, std::uint32_t pos) {
  fanins_.reserve(gates);
  pos_.reserve(pos);
  levels_.reserve(1 + pis + gates);
  fanout_counts_.reserve(1 + pis + gates);
  complement_counts_.reserve(gates);
  const auto capacity = std::bit_ceil<std::size_t>(2 * std::size_t{gates} + 1);
  if (gates > 0 && capacity > strash_slots_.size()) {
    strash_rebuild(capacity);
  }
  pi_names_.reserve(pis, 0);
  po_names_.reserve(pos, 0);
}

namespace {

/// Applies the trivial Ω.M rules. Returns the simplified signal, or nullopt
/// when ⟨a b c⟩ does not simplify.
std::optional<Signal> try_trivial_maj(Signal a, Signal b, Signal c) {
  if (a == b) return a;   // ⟨xxz⟩ = x
  if (a == !b) return c;  // ⟨xx̄z⟩ = z
  if (a == c) return a;
  if (a == !c) return b;
  if (b == c) return b;
  if (b == !c) return a;
  return std::nullopt;
}

}  // namespace

std::uint32_t Mig::append_gate(const std::array<Signal, 3>& fanin) {
  const auto index = num_nodes();
  std::uint32_t level = 0;
  std::uint8_t complements = 0;
  for (const auto f : fanin) {
    level = std::max(level, levels_[f.index()]);
    ++fanout_counts_[f.index()];
    if (!f.is_constant() && f.is_complemented()) {
      ++complements;
    }
  }
  fanins_.push_back(fanin);
  levels_.push_back(level + 1);
  fanout_counts_.push_back(0);
  complement_counts_.push_back(complements);
  complement_edges_ += complements;
  return index;
}

Signal Mig::create_maj(Signal a, Signal b, Signal c) {
  require(a.index() < num_nodes() && b.index() < num_nodes() && c.index() < num_nodes(),
          "Mig::create_maj: fanin references unknown node");
  if (const auto trivial = try_trivial_maj(a, b, c)) {
    return *trivial;
  }
  std::array<Signal, 3> fanin{a, b, c};
  std::sort(fanin.begin(), fanin.end());  // Ω.C: commutativity is free

  strash_reserve_one();
  auto* slot = strash_locate(fanin);
  if (*slot != 0) {
    return Signal::from_node(*slot);
  }
  const auto index = append_gate(fanin);
  *slot = index;
  ++strash_entries_;
  return Signal::from_node(index);
}

Signal Mig::create_xor(Signal a, Signal b) {
  // x ⊕ y = (x ∧ ¬y) ∨ (¬x ∧ y); three majority gates.
  const auto pos_part = create_and(a, !b);
  const auto neg_part = create_and(!a, b);
  return create_or(pos_part, neg_part);
}

Signal Mig::create_mux(Signal sel, Signal then_, Signal else_) {
  const auto t = create_and(sel, then_);
  const auto e = create_and(!sel, else_);
  return create_or(t, e);
}

void Mig::create_po(Signal s, std::string_view name) {
  require(s.index() < num_nodes(), "Mig::create_po: signal references unknown node");
  if (name.empty()) {
    po_names_.append("y" + std::to_string(pos_.size()));
  } else {
    po_names_.append(name);
  }
  ++fanout_counts_[s.index()];
  pos_.push_back(s);
}

Mig Mig::adopt_raw(RawGraph&& raw) {
  require(raw.pi_names.size() == raw.num_pis,
          "Mig::adopt_raw: PI name count does not match PI count");
  require(raw.po_names.size() == raw.pos.size(),
          "Mig::adopt_raw: PO name count does not match PO count");

  Mig mig;
  mig.num_pis_ = raw.num_pis;
  mig.pi_names_ = std::move(raw.pi_names);
  const auto gates = static_cast<std::uint32_t>(raw.fanins.size());
  mig.levels_.resize(1 + raw.num_pis, 0);
  mig.fanout_counts_.resize(1 + raw.num_pis, 0);
  mig.fanins_.reserve(gates);
  mig.levels_.reserve(1 + raw.num_pis + gates);
  mig.fanout_counts_.reserve(1 + raw.num_pis + gates);
  mig.complement_counts_.reserve(gates);
  if (gates > 0) {
    mig.strash_rebuild(std::bit_ceil<std::size_t>(2 * std::size_t{gates} + 1));
  }

  for (const auto& fanin : raw.fanins) {
    // Exactly the shape create_maj emits: strictly increasing fanin node
    // indices (covers Ω.C sortedness and rules out every trivial Ω.M
    // pattern, which all need a repeated index) that reference only
    // already-present nodes.
    require(fanin[0].index() < fanin[1].index() && fanin[1].index() < fanin[2].index(),
            "Mig::adopt_raw: gate fanins not in canonical sorted non-trivial form");
    require(fanin[2].index() < mig.num_nodes(),
            "Mig::adopt_raw: gate fanin references a later node");
    auto* slot = mig.strash_locate(fanin);
    require(*slot == 0, "Mig::adopt_raw: duplicate gate");
    *slot = mig.num_nodes();
    ++mig.strash_entries_;
    (void)mig.append_gate(fanin);
  }

  mig.pos_.reserve(raw.pos.size());
  mig.po_names_ = std::move(raw.po_names);
  for (const auto po : raw.pos) {
    require(po.index() < mig.num_nodes(), "Mig::adopt_raw: PO references unknown node");
    ++mig.fanout_counts_[po.index()];
    mig.pos_.push_back(po);
  }
  return mig;
}

const std::array<Signal, 3>& Mig::fanins(std::uint32_t gate) const {
  require(is_gate(gate), "Mig::fanins: node is not a gate");
  return fanins_[gate - first_gate()];
}

std::optional<Signal> Mig::find_maj(Signal a, Signal b, Signal c) const {
  if (const auto trivial = try_trivial_maj(a, b, c)) {
    return *trivial;
  }
  std::array<Signal, 3> fanin{a, b, c};
  std::sort(fanin.begin(), fanin.end());
  if (strash_slots_.empty()) {
    return std::nullopt;
  }
  if (const auto* slot = strash_locate(fanin); *slot != 0) {
    return Signal::from_node(*slot);
  }
  return std::nullopt;
}

std::vector<std::vector<std::uint32_t>> Mig::fanout_lists() const {
  std::vector<std::vector<std::uint32_t>> lists(num_nodes());
  for (std::uint32_t gate = first_gate(); gate < num_nodes(); ++gate) {
    for (const auto fanin : fanins_[gate - first_gate()]) {
      lists[fanin.index()].push_back(gate);
    }
  }
  return lists;
}

std::uint32_t Mig::depth() const {
  std::uint32_t max_level = 0;
  for (const auto po : pos_) {
    max_level = std::max(max_level, levels_[po.index()]);
  }
  return max_level;
}

int Mig::complement_count(std::uint32_t gate) const {
  require(is_gate(gate), "Mig::complement_count: node is not a gate");
  return complement_counts_[gate - first_gate()];
}

std::vector<bool> Mig::reachable_from_pos() const {
  // Fanins precede their gate, so one backward sweep over the gates sees
  // every gate's mark before it propagates it.
  std::vector<bool> reachable(num_nodes(), false);
  for (const auto po : pos_) {
    reachable[po.index()] = true;
  }
  for (auto gate = num_nodes(); gate-- > first_gate();) {
    if (!reachable[gate]) {
      continue;
    }
    for (const auto fanin : fanins_[gate - first_gate()]) {
      reachable[fanin.index()] = true;
    }
  }
  return reachable;
}

Mig Mig::cleanup() const {
  Mig fresh;
  fresh.reserve(num_pis_, num_gates(), num_pos());
  std::vector<Signal> map(num_nodes(), Signal::constant(false));
  for (std::uint32_t pi = 1; pi <= num_pis_; ++pi) {
    map[pi] = fresh.create_pi(pi_names_.view(pi - 1));
  }
  const auto reachable = reachable_from_pos();
  for (std::uint32_t gate = first_gate(); gate < num_nodes(); ++gate) {
    if (!reachable[gate]) {
      continue;
    }
    const auto& fanin = fanins_[gate - first_gate()];
    const auto remap = [&](Signal s) { return map[s.index()] ^ s.is_complemented(); };
    map[gate] = fresh.create_maj(remap(fanin[0]), remap(fanin[1]), remap(fanin[2]));
  }
  for (std::uint32_t i = 0; i < num_pos(); ++i) {
    const auto po = pos_[i];
    fresh.create_po(map[po.index()] ^ po.is_complemented(), po_names_.view(i));
  }
  return fresh;
}

std::uint64_t Mig::fingerprint() const {
  // Counts fold in as single words; both arenas hash as u32 lanes (Signal
  // is a trivially-copyable u32 wrapper, static_asserted above), so the
  // whole structural hash costs one multiply per 8 bytes and is
  // endian-independent by construction. Recomputed on every store decode,
  // which is why it is lane-based rather than byte-wise.
  std::uint64_t state = util::Fnv1a64::kOffsetBasis;
  state = (state ^ num_pis_) * util::Fnv1a64::kPrime;
  state = (state ^ num_gates()) * util::Fnv1a64::kPrime;
  state = util::fnv1a64_words(
      state, reinterpret_cast<const std::uint32_t*>(fanins_.data()),
      3 * fanins_.size());
  state = (state ^ num_pos()) * util::Fnv1a64::kPrime;
  state = util::fnv1a64_words(
      state, reinterpret_cast<const std::uint32_t*>(pos_.data()), pos_.size());
  return state;
}

}  // namespace rlim::mig
