#include <gtest/gtest.h>

#include <vector>

#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "plim/compiler.hpp"
#include "plim/controller.hpp"
#include "test_helpers.hpp"

namespace rlim::plim {
namespace {

using mig::Mig;
using mig::Signal;

// ---- translation cost model --------------------------------------------------

TEST(Translation, IdealGateIsOneInstruction) {
  // ⟨a b̄ c⟩: B←b free, A←a free, Z←c in place (last use) — paper's ideal.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(a, !b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 1u);
  EXPECT_EQ(result.num_cells, 3u);  // only the PI cells
  EXPECT_EQ(result.gate_instructions, 1u);
  EXPECT_EQ(result.overhead_instructions, 0u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 1));
}

TEST(Translation, AndOrAreSingleInstructions) {
  // ⟨0ab⟩ and ⟨1ab⟩: the constant serves as B for free.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_and(a, b));
  const auto and_result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(and_result.num_instructions(), 1u);
  EXPECT_TRUE(program_matches_mig(and_result.program, graph, 8, 2));

  Mig graph2;
  const auto a2 = graph2.create_pi();
  const auto b2 = graph2.create_pi();
  graph2.create_po(graph2.create_or(a2, b2));
  const auto or_result = PlimCompiler(CompilerOptions{}).compile(graph2);
  EXPECT_EQ(or_result.num_instructions(), 1u);
  EXPECT_TRUE(program_matches_mig(or_result.program, graph2, 8, 3));
}

TEST(Translation, ZeroComplementGateCostsTwoExtra) {
  // ⟨abc⟩ (no complement, no constant): B needs a complement copy.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(a, b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // 2 (complement copy) + 1
  EXPECT_EQ(result.num_cells, 4u);           // 3 PI + 1 temp
  EXPECT_EQ(result.overhead_instructions, 2u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 4));
}

TEST(Translation, TwoComplementGateCostsTwoExtra) {
  // ⟨ā b̄ c⟩: one complement rides B; the other needs a complement copy.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(!a, !b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 5));
}

TEST(Translation, MultiFanoutDestinationForcesCopy) {
  // Fig. 1 situation: both feasible destinations still have other uses.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(g);
  graph.create_po(a);  // `a` has another fanout
  graph.create_po(c);  // `c` too: no free in-place destination
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  // 2 (copy one operand) + 1 (RM3) instructions, one extra cell.
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 4u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 6));
}

TEST(Translation, ComplementedPoMaterialized) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(!g);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // gate + 2 inversion
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 7));
}

TEST(Translation, SharedComplementedPoMaterializedOnce) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(!g, "p");
  graph.create_po(!g, "q");
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // inversion shared by both POs
  EXPECT_EQ(result.program.po_cells()[0], result.program.po_cells()[1]);
}

TEST(Translation, ConstantAndPassthroughPos) {
  Mig graph;
  const auto a = graph.create_pi();
  graph.create_pi();
  graph.create_po(Mig::get_constant(true), "one");
  graph.create_po(a, "pass");
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 1u);  // one constant write
  EXPECT_EQ(result.program.po_cells()[1], result.program.pi_cells()[0]);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 4, 8));
}

TEST(Translation, TwoComplementsWithConstantFanin) {
  // ⟨0 ā b̄⟩ (NOR): B absorbs one complement for free, the constant rides A,
  // and the second complement needs a 2-instruction complement copy as Z —
  // 3 instructions total, one temp cell.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_and(!a, !b));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 3u);  // 2 PIs + 1 temp
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 9));
}

TEST(Translation, OrWithLiveOperandsCostsTwoExtra) {
  // ⟨1 a b⟩ (OR) where both a and b have other fanouts: in-place is
  // impossible — the constant rides B, one operand is A, the other is copied
  // into a fresh destination (2 extra instructions, 1 extra cell).
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_or(a, b));
  graph.create_po(a);
  graph.create_po(b);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 3u);  // 2 PIs + 1 fresh destination
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 10));
}

// ---- write accounting ---------------------------------------------------------

TEST(Compiler, StaticWriteCountsMatchAllocatorStats) {
  const auto graph = test::random_mig(77, 10, 120, 6);
  for (const char* policy : {"lifo", "min_write"}) {
    const auto result =
        PlimCompiler({{"plim21", {}}, {policy, {}}}).compile(graph);
    const auto program_stats =
        util::compute_stats(result.program.static_write_counts());
    EXPECT_EQ(program_stats.count, result.write_stats.count);
    EXPECT_EQ(program_stats.min, result.write_stats.min);
    EXPECT_EQ(program_stats.max, result.write_stats.max);
    EXPECT_DOUBLE_EQ(program_stats.stdev, result.write_stats.stdev);
    EXPECT_EQ(program_stats.total, result.num_instructions());
  }
}

TEST(Compiler, InstructionBreakdownSumsToTotal) {
  const auto graph = test::random_mig(31, 9, 90, 5);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.gate_instructions + result.overhead_instructions,
            result.num_instructions());
}

TEST(Compiler, PiBindingsAreComplete) {
  const auto graph = test::random_mig(5, 12, 40, 4);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.program.pi_cells().size(), graph.num_pis());
  EXPECT_EQ(result.program.po_cells().size(), graph.num_pos());
}

// ---- functional correctness across all option combinations --------------------

/// Grid axes: indices into the key tables below, which also label the
/// instantiated test names.
enum class Selection { NaiveOrder, Plim21, EnduranceAware };
enum class Allocation { Lifo, Fifo, RoundRobin, MinWrite };
constexpr const char* kSelectionKeys[] = {"naive", "plim21", "endurance"};
constexpr const char* kSelectionLabels[] = {"naive_order", "plim21",
                                            "endurance_aware"};
constexpr const char* kAllocationKeys[] = {"lifo", "fifo", "round_robin",
                                           "min_write"};

const char* key(Selection selection) {
  return kSelectionKeys[static_cast<int>(selection)];
}
const char* key(Allocation allocation) {
  return kAllocationKeys[static_cast<int>(allocation)];
}

class CompilerCorrectness
    : public ::testing::TestWithParam<
          std::tuple<Selection, Allocation, std::uint64_t>> {};

TEST_P(CompilerCorrectness, ProgramComputesTheMigFunction) {
  const auto [selection, allocation, seed] = GetParam();
  const auto graph = test::random_mig(seed, 11, 140, 7);
  const auto result =
      PlimCompiler({{key(selection), {}}, {key(allocation), {}}})
          .compile(graph);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 12, seed * 3 + 1))
      << key(selection) << " / " << key(allocation);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CompilerCorrectness,
    ::testing::Combine(::testing::Values(Selection::NaiveOrder,
                                         Selection::Plim21,
                                         Selection::EnduranceAware),
                       ::testing::Values(Allocation::Lifo, Allocation::Fifo,
                                         Allocation::RoundRobin,
                                         Allocation::MinWrite),
                       ::testing::Values(17, 99, 1234)),
    [](const auto& info) {
      return std::string(
                 kSelectionLabels[static_cast<int>(std::get<0>(info.param))]) +
             "_" + key(std::get<1>(info.param)) + "_" +
             std::to_string(std::get<2>(info.param));
    });

// ---- maximum write count strategy ---------------------------------------------

class MaxWriteCap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxWriteCap, CapIsNeverExceededAndFunctionHolds) {
  const auto cap = GetParam();
  const auto graph = test::random_mig(321, 10, 150, 6);
  CompilerOptions options{{"endurance", {}}, {"min_write", {}}, cap};
  const auto result = PlimCompiler(options).compile(graph);
  EXPECT_LE(result.write_stats.max, cap);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 12, cap));
}

INSTANTIATE_TEST_SUITE_P(Caps, MaxWriteCap, ::testing::Values(3, 5, 10, 20, 50));

TEST(MaxWrite, TighterCapCostsMoreCells) {
  const auto graph = test::random_mig(555, 10, 200, 8);
  const auto uncapped =
      PlimCompiler({{"plim21", {}}, {"min_write", {}}}).compile(graph);
  const auto capped =
      PlimCompiler({{"plim21", {}}, {"min_write", {}}, 4}).compile(graph);
  EXPECT_GE(capped.num_cells, uncapped.num_cells);
  EXPECT_GE(capped.num_instructions(), uncapped.num_instructions());
  EXPECT_LE(capped.write_stats.max, 4u);
}

TEST(MaxWrite, QuarantinedCellsReported) {
  const auto graph = test::random_mig(777, 8, 150, 6);
  const auto result =
      PlimCompiler({{"plim21", {}}, {"lifo", {}}, 3}).compile(graph);
  // With the tightest legal cap some cell must saturate on a graph this size.
  EXPECT_GT(result.quarantined_cells, 0u);
}

// ---- endurance strategies actually help (in aggregate) -------------------------

TEST(Endurance, MinWriteLowersStdevOnAverage) {
  double lifo_total = 0.0;
  double min_write_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto graph = test::random_mig(seed * 37, 10, 180, 8);
    lifo_total += PlimCompiler({{"plim21", {}}, {"lifo", {}}})
                      .compile(graph)
                      .write_stats.stdev;
    min_write_total += PlimCompiler({{"plim21", {}}, {"min_write", {}}})
                           .compile(graph)
                           .write_stats.stdev;
  }
  EXPECT_LT(min_write_total, lifo_total);
}

TEST(Endurance, MinWriteDoesNotChangeCosts) {
  // Paper: "the minimum write count strategy does not influence the number of
  // required instructions and RRAMs."
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto graph = test::random_mig(seed * 11, 9, 120, 6);
    const auto lifo =
        PlimCompiler({{"plim21", {}}, {"lifo", {}}}).compile(graph);
    const auto min_write =
        PlimCompiler({{"plim21", {}}, {"min_write", {}}}).compile(graph);
    EXPECT_EQ(lifo.num_instructions(), min_write.num_instructions());
    EXPECT_EQ(lifo.num_cells, min_write.num_cells);
  }
}

TEST(Compiler, DeadGatesAreNotCompiled) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto used = graph.create_maj(a, !b, c);
  graph.create_maj(!a, b, c);  // dead
  graph.create_po(used);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.gate_instructions, 1u);
}

TEST(Compiler, UnusedPiCellsAreReusable) {
  // An unused PI's cell joins the free set; with LIFO it is the first reuse
  // target, so #R does not grow for the temp.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_pi();  // unused
  graph.create_po(graph.create_maj(a, b, c));  // needs one temp (0 complements)
  const auto result =
      PlimCompiler({{"plim21", {}}, {"lifo", {}}}).compile(graph);
  EXPECT_EQ(result.num_cells, 4u);  // temp reused the dead PI cell
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 11));
}

TEST(Compiler, SelectionPolicyNames) {
  // The registry keys are the canonical `select=` spellings inside config
  // keys, store entries, and CSV title lines.
  for (const char* key : {"naive", "plim21", "endurance", "wear_quota"}) {
    EXPECT_NE(selectors().find(key), nullptr) << key;
  }
}

TEST(Compiler, FactoryOptionsMatchEnumShorthand) {
  // CompilerOptions built from explicit factories and from policy specs are
  // the same policies — identical programs.
  const auto graph = test::random_mig(77, 9, 80, 4);
  CompilerOptions factory_options;
  factory_options.selector = [] {
    return make_selector({"endurance", {}});
  };
  factory_options.allocator = [] {
    return make_allocator({"min_write", {}});
  };
  const auto via_factories = PlimCompiler(factory_options).compile(graph);
  const auto via_enums =
      PlimCompiler({{"endurance", {}}, {"min_write", {}}}).compile(graph);
  EXPECT_EQ(via_factories.num_instructions(), via_enums.num_instructions());
  EXPECT_EQ(via_factories.num_cells, via_enums.num_cells);
  EXPECT_DOUBLE_EQ(via_factories.write_stats.stdev,
                   via_enums.write_stats.stdev);
}

TEST(Compiler, NullFactoriesAreRejected) {
  CompilerOptions options;
  options.selector = nullptr;
  EXPECT_THROW(PlimCompiler{options}, Error);
}

TEST(Compiler, WearQuotaSelectorCompilesCorrectPrograms) {
  // The stateful registry-only selector goes through the same contract as
  // the built-ins: every cap honored, function preserved.
  const auto graph = test::random_mig(88, 10, 120, 6);
  for (const auto* quota : {"1", "4", "1000000"}) {
    CompilerOptions options;
    options.selector = [quota] {
      return make_selector(
          util::PolicySpec{"wear_quota", {{"quota", quota}}});
    };
    options.allocator = [] { return make_allocator({"min_write", {}}); };
    const auto result = PlimCompiler(options).compile(graph);
    EXPECT_TRUE(program_matches_mig(result.program, graph, 10, 3))
        << "quota " << quota;
  }
}

TEST(Compiler, HugeWearQuotaMatchesEnduranceAware) {
  // A quota no level can exhaust never rotates: the schedule degenerates to
  // Algorithm 3 exactly.
  const auto graph = test::random_mig(99, 10, 120, 6);
  CompilerOptions quota_options;
  quota_options.selector = [] {
    return make_selector(
        util::PolicySpec{"wear_quota", {{"quota", "1000000"}}});
  };
  quota_options.allocator = [] { return make_allocator({"min_write", {}}); };
  const auto quota = PlimCompiler(quota_options).compile(graph);
  const auto endurance =
      PlimCompiler({{"endurance", {}}, {"min_write", {}}}).compile(graph);
  EXPECT_EQ(quota.num_instructions(), endurance.num_instructions());
  EXPECT_DOUBLE_EQ(quota.write_stats.stdev, endurance.write_stats.stdev);
}

}  // namespace
}  // namespace rlim::plim
