#include "mig/simulate.hpp"

#include <memory>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::mig {

namespace {

/// Fills every node word of `values` (num_nodes() of them): the constant
/// node, the PIs, then the gates in topological order.
void simulate_into(const Mig& mig, std::span<const std::uint64_t> pi_values,
                   std::span<std::uint64_t> values) {
  require(pi_values.size() == mig.num_pis(),
          "simulate_nodes: PI value count mismatch");
  values[0] = 0;
  for (std::uint32_t pi = 0; pi < mig.num_pis(); ++pi) {
    values[pi + 1] = pi_values[pi];
  }
  const auto value_of = [&](Signal s) {
    const auto word = values[s.index()];
    return s.is_complemented() ? ~word : word;
  };
  for (std::uint32_t gate = mig.first_gate(); gate < mig.num_nodes(); ++gate) {
    const auto& fanin = mig.fanins(gate);
    const auto a = value_of(fanin[0]);
    const auto b = value_of(fanin[1]);
    const auto c = value_of(fanin[2]);
    values[gate] = (a & b) | (a & c) | (b & c);
  }
}

void extract_pos(const Mig& mig, std::span<const std::uint64_t> values,
                 std::span<std::uint64_t> po_values) {
  std::size_t i = 0;
  for (const auto po : mig.pos()) {
    const auto word = values[po.index()];
    po_values[i++] = po.is_complemented() ? ~word : word;
  }
}

}  // namespace

std::vector<std::uint64_t> simulate_nodes(const Mig& mig,
                                          std::span<const std::uint64_t> pi_values) {
  std::vector<std::uint64_t> values(mig.num_nodes());
  simulate_into(mig, pi_values, values);
  return values;
}

std::vector<std::uint64_t> simulate(const Mig& mig,
                                    std::span<const std::uint64_t> pi_values) {
  // Every node word is written before it is read, so the buffer skips
  // zero-initialization.
  const auto values = std::make_unique_for_overwrite<std::uint64_t[]>(mig.num_nodes());
  simulate_into(mig, pi_values, {values.get(), mig.num_nodes()});
  std::vector<std::uint64_t> result(mig.num_pos());
  extract_pos(mig, {values.get(), mig.num_nodes()}, result);
  return result;
}

void simulate(const Mig& mig, std::span<const std::uint64_t> pi_values,
              std::vector<std::uint64_t>& nodes, std::span<std::uint64_t> po_values) {
  require(po_values.size() == mig.num_pos(), "simulate: PO buffer size mismatch");
  nodes.resize(mig.num_nodes());
  simulate_into(mig, pi_values, nodes);
  extract_pos(mig, nodes, po_values);
}

std::uint64_t exhaustive_pattern(std::uint32_t pi, std::uint64_t chunk) {
  static constexpr std::uint64_t kMasks[6] = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
  if (pi < 6) {
    return kMasks[pi];
  }
  return (chunk >> (pi - 6)) & 1 ? ~0ULL : 0ULL;
}

bool equivalent_random(const Mig& a, const Mig& b, unsigned rounds,
                       std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> pi_values(a.num_pis());
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& word : pi_values) {
      word = rng();
    }
    if (simulate(a, pi_values) != simulate(b, pi_values)) {
      return false;
    }
  }
  return true;
}

bool equivalent_exhaustive(const Mig& a, const Mig& b, std::uint32_t max_pis) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  require(a.num_pis() <= max_pis, "equivalent_exhaustive: too many PIs");
  const auto num_pis = a.num_pis();
  const std::uint64_t chunks = num_pis > 6 ? (1ULL << (num_pis - 6)) : 1;
  std::vector<std::uint64_t> pi_values(num_pis);
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    for (std::uint32_t pi = 0; pi < num_pis; ++pi) {
      pi_values[pi] = exhaustive_pattern(pi, chunk);
    }
    auto lhs = simulate(a, pi_values);
    auto rhs = simulate(b, pi_values);
    if (num_pis < 6) {
      // Only the first 2^num_pis rows are meaningful.
      const std::uint64_t mask = (1ULL << (1u << num_pis)) - 1;
      for (auto& word : lhs) word &= mask;
      for (auto& word : rhs) word &= mask;
    }
    if (lhs != rhs) {
      return false;
    }
  }
  return true;
}

std::uint64_t truth_table(const Mig& mig, std::uint32_t po) {
  require(mig.num_pis() <= 6, "truth_table: needs <= 6 PIs");
  require(po < mig.num_pos(), "truth_table: PO out of range");
  std::vector<std::uint64_t> pi_values(mig.num_pis());
  for (std::uint32_t pi = 0; pi < mig.num_pis(); ++pi) {
    pi_values[pi] = exhaustive_pattern(pi, 0);
  }
  auto result = simulate(mig, pi_values)[po];
  if (mig.num_pis() < 6) {
    result &= (1ULL << (1u << mig.num_pis())) - 1;
  }
  return result;
}

std::uint64_t simulation_signature(const Mig& mig, unsigned rounds,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> pi_values(mig.num_pis());
  std::uint64_t signature = 0x6a09e667f3bcc908ULL;
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& word : pi_values) {
      word = rng();
    }
    for (const auto word : simulate(mig, pi_values)) {
      std::uint64_t state = signature ^ word;
      signature = util::splitmix64(state);
    }
  }
  return signature;
}

}  // namespace rlim::mig
