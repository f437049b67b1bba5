#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "benchmarks/suite.hpp"
#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "plim/compiler.hpp"
#include "plim/controller.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

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

// ---- pinned programs -----------------------------------------------------------

/// Every observable of one compile folded into a digest: the instruction
/// words, the PI/PO bindings, #R, the write-count min/max/total and the
/// quarantine count.
void fold_outcome(util::Fnv1a64& hash, const CompileResult& result) {
  for (const auto& instruction : result.program.instructions()) {
    hash.u32(instruction.a.raw()).u32(instruction.b.raw()).u32(instruction.z);
  }
  for (const auto cell : result.program.pi_cells()) {
    hash.u32(cell);
  }
  for (const auto cell : result.program.po_cells()) {
    hash.u32(cell);
  }
  hash.u64(result.num_cells)
      .u64(result.write_stats.min)
      .u64(result.write_stats.max)
      .u64(result.write_stats.total)
      .u64(result.quarantined_cells);
}

struct PinnedRow {
  const char* graph;   ///< mini-suite name, or "paper:<name>"
  const char* select;  ///< selector spec
  std::uint64_t digest;
};

/// One digest per (graph, selector), folded over every allocator in
/// kPinnedAllocators x {no cap, cap=6} in that order. The paper-suite graphs
/// run uncapped only: under cap=6 their free sets fill with near-cap cells
/// that every acquire pops and restores, seconds per compile. Recorded from
/// the std::set-based compiler and allocators; the flat heap/bitset
/// structures must pop in exactly the same order.
constexpr const char* kPinnedAllocators[] = {"lifo", "fifo", "round_robin",
                                             "min_write", "start_gap:interval=3"};
constexpr PinnedRow kPinned[] = {
    {"adder", "naive", 0x2a131a0e73739abeULL},
    {"adder", "plim21", 0xf4533aacba28ae27ULL},
    {"adder", "endurance", 0x4671083c69cea9c4ULL},
    {"adder", "wear_quota:quota=4", 0xc2f37a7c04e3ac18ULL},
    {"bar", "naive", 0x90e78e1fc82897b7ULL},
    {"bar", "plim21", 0x6cb8546e781715a0ULL},
    {"bar", "endurance", 0x93d70881d7899bfeULL},
    {"bar", "wear_quota:quota=4", 0x8566327cfdec595aULL},
    {"div", "naive", 0x7677436225fcce9bULL},
    {"div", "plim21", 0xdf611ac7564299a0ULL},
    {"div", "endurance", 0xdea9174b0ea0aecULL},
    {"div", "wear_quota:quota=4", 0xe7bbe30ae8986b2bULL},
    {"log2", "naive", 0x35b66396a15e2dc7ULL},
    {"log2", "plim21", 0x70430decc703ad49ULL},
    {"log2", "endurance", 0x33cb20757e14927dULL},
    {"log2", "wear_quota:quota=4", 0x686a9bc7f17197d3ULL},
    {"max", "naive", 0x7f48a4ad0e752c01ULL},
    {"max", "plim21", 0xb1a246ee0f0e6029ULL},
    {"max", "endurance", 0x2c86c6610f189188ULL},
    {"max", "wear_quota:quota=4", 0x7fade87349c73ca1ULL},
    {"multiplier", "naive", 0x90d756c1a1f77754ULL},
    {"multiplier", "plim21", 0xd938ec4b1fefc4f0ULL},
    {"multiplier", "endurance", 0x6eb4fdc45f14b8c8ULL},
    {"multiplier", "wear_quota:quota=4", 0x90a60e489c68dc15ULL},
    {"sin", "naive", 0xeecd00ea654508d5ULL},
    {"sin", "plim21", 0xfa5c1892a01f439bULL},
    {"sin", "endurance", 0xae128185a0d75722ULL},
    {"sin", "wear_quota:quota=4", 0x1fe1e1f09af82982ULL},
    {"sqrt", "naive", 0xc317d3fad5d2753fULL},
    {"sqrt", "plim21", 0x3f7cc5e0728c16aULL},
    {"sqrt", "endurance", 0xdfe44892865333faULL},
    {"sqrt", "wear_quota:quota=4", 0xd2f19c757ec5e8b2ULL},
    {"square", "naive", 0x6bc276df4b7060f5ULL},
    {"square", "plim21", 0x13600a996899713dULL},
    {"square", "endurance", 0x71c54b7bd5a76452ULL},
    {"square", "wear_quota:quota=4", 0x6c0b37acc0444628ULL},
    {"cavlc", "naive", 0xf197351de373c379ULL},
    {"cavlc", "plim21", 0x40cd95f4d1627668ULL},
    {"cavlc", "endurance", 0xbff16b648f8cdfe8ULL},
    {"cavlc", "wear_quota:quota=4", 0xeafb068a1e451b2eULL},
    {"ctrl", "naive", 0xd74d4911e5b6fe1eULL},
    {"ctrl", "plim21", 0xe5072ae48d98a818ULL},
    {"ctrl", "endurance", 0xe4626d71a0043d9bULL},
    {"ctrl", "wear_quota:quota=4", 0xd53109f9cd528792ULL},
    {"dec", "naive", 0xdf0568fffe1e1f54ULL},
    {"dec", "plim21", 0x9dbe2b61fd0418b4ULL},
    {"dec", "endurance", 0x9dbe2b61fd0418b4ULL},
    {"dec", "wear_quota:quota=4", 0xa7bf64dd1adb16f4ULL},
    {"i2c", "naive", 0x9955d0fa8be2709fULL},
    {"i2c", "plim21", 0xb7cd544d2fe017d0ULL},
    {"i2c", "endurance", 0x9dc66ce16be63e13ULL},
    {"i2c", "wear_quota:quota=4", 0x875816ae078a8014ULL},
    {"int2float", "naive", 0x13471e5bd115bf80ULL},
    {"int2float", "plim21", 0x89b23135db93e458ULL},
    {"int2float", "endurance", 0xbf031c5fa81b70b3ULL},
    {"int2float", "wear_quota:quota=4", 0x98fe79526a0220ebULL},
    {"mem_ctrl", "naive", 0x123a2a3114155fceULL},
    {"mem_ctrl", "plim21", 0xa316be35962fefd0ULL},
    {"mem_ctrl", "endurance", 0x3b218f101f1dd101ULL},
    {"mem_ctrl", "wear_quota:quota=4", 0x7df69b6fcd529259ULL},
    {"priority", "naive", 0x8ca9a0ef35ff7f48ULL},
    {"priority", "plim21", 0x1f7734f4ac769af1ULL},
    {"priority", "endurance", 0xc86c1cbb284207adULL},
    {"priority", "wear_quota:quota=4", 0xbf2f9bdb1fd014b2ULL},
    {"router", "naive", 0x884ce821c57bcfa6ULL},
    {"router", "plim21", 0xdcb54d85c78a4e1cULL},
    {"router", "endurance", 0x7d3c28a5598a9d1eULL},
    {"router", "wear_quota:quota=4", 0x4664eb372db2281dULL},
    {"voter", "naive", 0x750577a20d5ad5c7ULL},
    {"voter", "plim21", 0x23e464ded0a11233ULL},
    {"voter", "endurance", 0x305b4ec4dd197d59ULL},
    {"voter", "wear_quota:quota=4", 0x305b4ec4dd197d59ULL},
    {"paper:mem_ctrl", "naive", 0x846b65e00220e5b2ULL},
    {"paper:mem_ctrl", "plim21", 0x67dfaaf80187b612ULL},
    {"paper:mem_ctrl", "endurance", 0x3c9cdf74303be19cULL},
    {"paper:mem_ctrl", "wear_quota:quota=4", 0xd355a6db7b22d29bULL},
    {"paper:multiplier", "naive", 0x74ea4b5811312f9bULL},
    {"paper:multiplier", "plim21", 0xbcc82ea31b38cbf4ULL},
    {"paper:multiplier", "endurance", 0xed4e74874acda40cULL},
    {"paper:multiplier", "wear_quota:quota=4", 0x666e66a5cef0038ULL},
};

constexpr std::string_view kPaperPrefix = "paper:";

bool is_paper(std::string_view name) { return name.starts_with(kPaperPrefix); }

const mig::Mig& pinned_graph(const std::string& name) {
  static std::map<std::string, mig::Mig> graphs;
  auto it = graphs.find(name);
  if (it == graphs.end()) {
    const auto& suite = is_paper(name) ? bench::paper_suite() : bench::mini_suite();
    const auto key = is_paper(name) ? name.substr(kPaperPrefix.size()) : name;
    const auto spec = std::find_if(suite.begin(), suite.end(),
                                   [&](const auto& entry) { return entry.name == key; });
    it = graphs.emplace(name, spec->build()).first;
  }
  return it->second;
}

TEST(Compiler, ProgramsArePinned) {
  for (const auto& row : kPinned) {
    const auto& graph = pinned_graph(row.graph);
    std::vector<std::optional<std::uint64_t>> caps{std::nullopt};
    if (!is_paper(row.graph)) {
      caps.emplace_back(6);
    }
    util::Fnv1a64 hash;
    for (const auto* alloc : kPinnedAllocators) {
      for (const auto cap : caps) {
        const CompilerOptions options(util::PolicySpec::parse(row.select),
                                      util::PolicySpec::parse(alloc), cap);
        fold_outcome(hash, PlimCompiler(options).compile(graph));
      }
    }
    EXPECT_EQ(hash.digest(), row.digest)
        << "{\"" << row.graph << "\", \"" << row.select << "\", 0x"
        << std::hex << hash.digest() << "ULL},";
  }
}

}  // namespace
}  // namespace rlim::plim
