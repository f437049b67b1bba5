#include <gtest/gtest.h>

#include <vector>

#include "mig/mig.hpp"
#include "mig/axioms.hpp"
#include "mig/rewriting.hpp"
#include "mig/simulate.hpp"
#include "pass/seq.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::mig {
namespace {

/// A deliberately redundant circuit in the style of AIG-derived benchmarks:
/// ripple-carry logic with the carry written as a sum of products
/// cout = (a∧b) ∨ (a∧c) ∨ (b∧c). The first OR's children ⟨0ab⟩ and ⟨0ac⟩
/// share two fanins, so Ω.D(R→L) can fuse them; the "waste" gates are Ω.I
/// targets with two complemented fanins.
Mig redundant_circuit(int bits) {
  Mig mig;
  std::vector<Signal> a;
  std::vector<Signal> b;
  for (int i = 0; i < bits; ++i) a.push_back(mig.create_pi());
  for (int i = 0; i < bits; ++i) b.push_back(mig.create_pi());
  auto carry = Mig::get_constant(false);
  for (int i = 0; i < bits; ++i) {
    const auto and_ab = mig.create_and(a[i], b[i]);
    const auto and_ac = mig.create_and(a[i], carry);
    const auto and_bc = mig.create_and(b[i], carry);
    const auto next_carry = mig.create_or(mig.create_or(and_ab, and_ac), and_bc);
    const auto sum = mig.create_xor(mig.create_xor(a[i], b[i]), carry);
    mig.create_po(sum);
    // Doubly-complemented gate (Ω.I target).
    const auto waste = mig.create_maj(!a[i], !b[i], sum);
    mig.create_po(waste);
    carry = next_carry;
  }
  mig.create_po(carry);
  return mig;
}

/// Runs the registered rewrite flow `key` at `effort`.
Mig rewrite(const Mig& mig, const std::string& key, int effort = 5,
            RewriteStats* stats = nullptr) {
  return pass::make_rewrite({key, {{"effort", std::to_string(effort)}}})(
      mig, stats);
}

TEST(Rewriting, Plim21PreservesFunctionOnRedundantCircuit) {
  const auto mig = redundant_circuit(6);
  RewriteStats stats;
  const auto out = rewrite(mig, "plim21", 5, &stats);
  EXPECT_TRUE(equivalent_exhaustive(mig, out));
  EXPECT_EQ(stats.initial_gates, mig.num_gates());
  EXPECT_EQ(stats.final_gates, out.num_gates());
}

TEST(Rewriting, EndurancePreservesFunctionOnRedundantCircuit) {
  const auto mig = redundant_circuit(6);
  const auto out = rewrite(mig, "endurance", 5);
  EXPECT_TRUE(equivalent_exhaustive(mig, out));
}

TEST(Rewriting, EnduranceReducesComplementEdges) {
  const auto mig = redundant_circuit(8);
  RewriteStats stats;
  rewrite(mig, "endurance", 5, &stats);
  EXPECT_LT(stats.final_complement_edges, stats.initial_complement_edges);
}

TEST(Rewriting, BothFlowsReduceGateCount) {
  const auto mig = redundant_circuit(8);
  RewriteStats s1;
  RewriteStats s2;
  rewrite(mig, "plim21", 5, &s1);
  rewrite(mig, "endurance", 5, &s2);
  EXPECT_LT(s1.final_gates, s1.initial_gates);
  EXPECT_LT(s2.final_gates, s2.initial_gates);
}

TEST(Rewriting, EffortZeroOnlyCleansUp) {
  auto mig = redundant_circuit(4);
  RewriteStats stats;
  const auto out = rewrite(mig, "plim21", 0, &stats);
  EXPECT_EQ(stats.cycles_run, 0);
  EXPECT_EQ(out.num_gates(), mig.cleanup().num_gates());
  EXPECT_TRUE(equivalent_exhaustive(mig, out));
}

TEST(Rewriting, NegativeEffortThrows) {
  const auto mig = redundant_circuit(2);
  EXPECT_THROW(rewrite(mig, "plim21", -1), Error);
}

TEST(Rewriting, EarlyExitAtFixpoint) {
  // A single AND gate admits no rewriting: one cycle must suffice.
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  mig.create_po(mig.create_and(a, b));
  RewriteStats stats;
  rewrite(mig, "plim21", 100, &stats);
  EXPECT_LE(stats.cycles_run, 2);
}

TEST(Rewriting, DispatchMatchesDirectCalls) {
  const auto mig = redundant_circuit(5);
  const auto none = pass::make_rewrite({"none", {}})(mig, nullptr);
  EXPECT_EQ(none.num_gates(), mig.cleanup().num_gates());
  const auto alg1 = rewrite(mig, "plim21");
  const auto alg2 = rewrite(mig, "endurance");
  EXPECT_TRUE(equivalent_exhaustive(mig, alg1));
  EXPECT_TRUE(equivalent_exhaustive(mig, alg2));
}

TEST(Rewriting, ToStringNames) {
  // The flow keys are the canonical spellings inside every config key,
  // store entry, and CSV title line.
  std::vector<std::string> keys;
  for (const auto& info : pass::rewrites().list()) {
    keys.push_back(info.key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"endurance", "level_balanced",
                                            "none", "plim21", "seq"}));
}

TEST(Rewriting, LevelBalancedDispatchPreservesFunction) {
  const auto mig = redundant_circuit(5);
  const auto balanced = rewrite(mig, "level_balanced");
  EXPECT_TRUE(equivalent_exhaustive(mig, balanced));
}

class RewritePreservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RewritePreservation, BothFlowsPreserveRandomFunctions) {
  const auto seed = GetParam();
  const auto mig = test::random_mig(seed, 12, 150, 6);
  const auto alg1 = rewrite(mig, "plim21", 5);
  const auto alg2 = rewrite(mig, "endurance", 5);
  EXPECT_TRUE(equivalent_random(mig, alg1, 16, seed ^ 0xabc))
      << "Algorithm 1 broke seed " << seed;
  EXPECT_TRUE(equivalent_random(mig, alg2, 16, seed ^ 0xdef))
      << "Algorithm 2 broke seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePreservation,
                         ::testing::Values(3, 7, 19, 42, 77, 123, 256, 999,
                                           2024, 31337));

TEST(Rewriting, LevelBalancedFlowPreservesFunction) {
  const auto mig = redundant_circuit(6);
  const auto out = rewrite(mig, "level_balanced", 5);
  EXPECT_TRUE(equivalent_exhaustive(mig, out));
}

TEST(Rewriting, LevelBalancePassReducesDepthOnChains) {
  // A left-leaning associative chain sharing u: level balancing must pull
  // the deep operand upward and cut the depth.
  Mig mig;
  const auto u = mig.create_pi();
  std::vector<Signal> xs;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(mig.create_pi());
  }
  // Build ⟨x5 u ⟨x4 u ⟨x3 u ⟨x2 u ⟨x1 u x0⟩⟩⟩⟩⟩ — x0 sits 5 levels deep.
  auto acc = xs[0];
  for (int i = 1; i < 6; ++i) {
    acc = mig.create_maj(xs[i], u, acc);
  }
  mig.create_po(acc);
  const auto before = mig.depth();
  const auto result = pass_level_balance(mig);
  EXPECT_GE(result.applications, 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
  EXPECT_LE(result.mig.depth(), before);
}

TEST(Rewriting, LevelBalancePreservesRandomFunctions) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    const auto mig = test::random_mig(seed, 10, 120, 5);
    const auto result = pass_level_balance(mig);
    EXPECT_TRUE(equivalent_random(mig, result.mig, 12, seed)) << "seed " << seed;
  }
}

TEST(Rewriting, StatsAccumulateApplications) {
  const auto mig = redundant_circuit(8);
  RewriteStats stats;
  rewrite(mig, "endurance", 5, &stats);
  EXPECT_GT(stats.total_applications, 0u);
  EXPECT_GE(stats.cycles_run, 1);
  EXPECT_LE(stats.cycles_run, 5);
}

}  // namespace
}  // namespace rlim::mig
