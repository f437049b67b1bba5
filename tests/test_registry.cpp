#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "benchmarks/arithmetic.hpp"
#include "core/registry.hpp"
#include "core/endurance.hpp"
#include "plim/controller.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim {
namespace {

using core::PipelineConfig;
using core::Strategy;

// ---- registry facade -------------------------------------------------------

TEST(Registry, KindsCoverTheSpecGrammar) {
  const auto kinds = registry::kinds();
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(kinds[0], "rewrite");
  EXPECT_EQ(kinds[1], "pass");  // the building blocks of rewrite=seq:
  EXPECT_EQ(kinds[2], "select");
  EXPECT_EQ(kinds[3], "alloc");
  EXPECT_EQ(kinds[4], "fault");
}

TEST(Registry, BuiltinsAreListed) {
  const auto keys = [](std::string_view kind) {
    std::set<std::string> out;
    for (const auto& info : registry::list(kind)) {
      out.insert(info.key);
    }
    return out;
  };
  const auto rewrite = keys("rewrite");
  for (const auto* key :
       {"none", "plim21", "endurance", "level_balanced", "seq"}) {
    EXPECT_TRUE(rewrite.count(key)) << key;
  }
  const auto pass_keys = keys("pass");
  for (const auto* key : {"maj", "dist", "assoc", "comp", "inv", "inv3",
                          "relief", "cleanup"}) {
    EXPECT_TRUE(pass_keys.count(key)) << key;
  }
  const auto select = keys("select");
  for (const auto* key : {"naive", "plim21", "endurance", "wear_quota"}) {
    EXPECT_TRUE(select.count(key)) << key;
  }
  const auto alloc = keys("alloc");
  for (const auto* key : {"lifo", "fifo", "round_robin", "min_write",
                          "start_gap", "retire", "spare"}) {
    EXPECT_TRUE(alloc.count(key)) << key;
  }
  const auto fault_models = keys("fault");
  for (const auto* key : {"none", "stuck", "drift", "variation", "mixed"}) {
    EXPECT_TRUE(fault_models.count(key)) << key;
  }
  EXPECT_THROW(static_cast<void>(registry::list("frobnicate")), Error);
}

TEST(Registry, DescribeExposesParameters) {
  const auto& endurance = registry::describe("rewrite", "endurance");
  ASSERT_EQ(endurance.params.size(), 1u);
  EXPECT_EQ(endurance.params[0].name, "effort");
  EXPECT_EQ(endurance.params[0].default_value, "5");

  const auto& start_gap = registry::describe("alloc", "start_gap");
  ASSERT_EQ(start_gap.params.size(), 1u);
  EXPECT_EQ(start_gap.params[0].name, "interval");

  const auto& stuck = registry::describe("fault", "stuck");
  EXPECT_EQ(stuck.params[0].name, "rate");
  EXPECT_EQ(stuck.params[0].default_value, "0.0001");

  EXPECT_THROW(static_cast<void>(registry::describe("select", "nope")), Error);
}

TEST(Registry, MakeValidatesParameterValues) {
  EXPECT_NE(registry::make_selector({"wear_quota", {{"quota", "3"}}}), nullptr);
  EXPECT_THROW(registry::make_selector({"wear_quota", {{"quota", "0"}}}),
               Error);
  EXPECT_THROW(registry::make_selector({"wear_quota", {{"quota", "x"}}}),
               Error);
  EXPECT_THROW(registry::make_allocator({"start_gap", {{"interval", "0"}}}),
               Error);
  EXPECT_THROW(registry::make_rewrite({"endurance", {{"effort", "-1"}}}),
               Error);
  // Unknown parameters are rejected by normalization.
  EXPECT_THROW(registry::make_allocator({"lifo", {{"interval", "4"}}}), Error);
}

// ---- enum name round-trips -------------------------------------------------

TEST(EnumNames, StrategyRoundTripsEveryEnumerator) {
  for (const auto strategy :
       {Strategy::Naive, Strategy::Plim21, Strategy::MinWrite,
        Strategy::MinWriteEnduranceRewrite, Strategy::FullEndurance}) {
    EXPECT_EQ(core::parse_strategy(to_string(strategy)), strategy);
    EXPECT_EQ(core::parse_strategy(std::string(core::strategy_alias(strategy))),
              strategy);
  }
  EXPECT_THROW(static_cast<void>(core::parse_strategy("bogus")), Error);
}

// ---- config spec grammar ---------------------------------------------------

TEST(ConfigSpec, PresetAliasesMatchMakeConfig) {
  for (const auto& [alias, strategy] : core::strategy_aliases()) {
    EXPECT_EQ(PipelineConfig::parse(std::string(alias)), make_config(strategy))
        << alias;
  }
}

TEST(ConfigSpec, AliasWithOverrides) {
  const auto capped = PipelineConfig::parse("full,cap=100");
  EXPECT_EQ(capped.max_writes, std::uint64_t{100});
  EXPECT_EQ(capped, make_config(Strategy::FullEndurance, 100));

  const auto swapped = PipelineConfig::parse("full,alloc=start_gap");
  EXPECT_EQ(swapped.rewrite.key, "endurance");
  EXPECT_EQ(swapped.allocation.key, "start_gap");
  EXPECT_EQ(swapped.allocation.params.at("interval"), "16");  // default filled
}

TEST(ConfigSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("bogus")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("cap=10,full")), Error);  // alias not first
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("full,cap=10,cap=20")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("banana=split")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("select=unregistered")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("alloc=lifo:speed=11")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("rewrite=endurance:effort=many")), Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse("cap=ten")), Error);
}

TEST(ConfigSpec, CapBelowThreeIsRejectedWithClearError) {
  // The maximum write count strategy needs >= 3 writes of headroom for the
  // compiler's copy idioms — both the spec grammar and make_config enforce
  // it up front.
  for (const auto* spec : {"full,cap=0", "full,cap=1", "full,cap=2"}) {
    EXPECT_THROW(static_cast<void>(PipelineConfig::parse(spec)), Error) << spec;
  }
  try {
    static_cast<void>(PipelineConfig::parse("full,cap=2"));
    FAIL() << "cap=2 must be rejected";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("cap 2 is below 3"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(static_cast<void>(core::make_config(Strategy::FullEndurance, 2)), Error);
  EXPECT_NO_THROW(static_cast<void>(PipelineConfig::parse("full,cap=3")));
}

TEST(ConfigSpec, EffortAccessors) {
  auto config = core::make_config(Strategy::FullEndurance);
  EXPECT_EQ(config.effort(), 5);
  config.set_effort(2);
  EXPECT_EQ(config.effort(), 2);
  EXPECT_EQ(config.rewrite.canonical(), "endurance:effort=2");

  auto naive = core::make_config(Strategy::Naive);
  EXPECT_EQ(naive.effort(), 0);
  naive.set_effort(7);  // "none" declares no effort knob — a no-op
  EXPECT_EQ(naive, core::make_config(Strategy::Naive));
}

// ---- canonical key round-trip property -------------------------------------

TEST(ConfigSpec, ParseCanonicalKeyRoundTripsEveryRegisteredCombination) {
  // The acceptance property of the redesign: parse(canonical_key(c)) == c
  // for every registered policy combination (with and without a cap). Going
  // through registry::list also forces fault::ensure_registered(), so the
  // allocator decorators are in the listing regardless of test order.
  std::size_t combinations = 0;
  for (const auto& rewrite : registry::list("rewrite")) {
    for (const auto& select : registry::list("select")) {
      for (const auto& alloc : registry::list("alloc")) {
        for (const auto& fault_model : registry::list("fault")) {
          for (const auto cap : {std::optional<std::uint64_t>{},
                                 std::optional<std::uint64_t>{10}}) {
            PipelineConfig config;
            config.rewrite = {rewrite.key, {}};
            config.selection = {select.key, {}};
            config.allocation = {alloc.key, {}};
            config.fault = {fault_model.key, {}};
            config.max_writes = cap;
            config = config.normalized();
            const auto key = config.canonical_key();
            EXPECT_EQ(PipelineConfig::parse(key), config) << key;
            EXPECT_EQ(PipelineConfig::parse(key).canonical_key(), key) << key;
            ++combinations;
          }
        }
      }
    }
  }
  // 5 rewrites x 4 selectors x 7 allocators x 5 fault models x 2 cap variants
  // — the seq flow (default passes = the endurance alias list) round-trips
  // through the grammar like every enum-backed flow.
  EXPECT_EQ(combinations, 1400u);
}

TEST(ConfigSpec, NonDefaultParametersSurviveTheRoundTrip) {
  const auto config = PipelineConfig::parse(
      "rewrite=level_balanced:effort=3,select=wear_quota:quota=2,"
      "alloc=start_gap:interval=4,cap=50");
  EXPECT_EQ(config.canonical_key(),
            "rewrite=level_balanced:effort=3,select=wear_quota:quota=2,"
            "alloc=start_gap:interval=4,cap=50");
  EXPECT_EQ(PipelineConfig::parse(config.canonical_key()), config);
}

// ---- behavior of the registry-only policies --------------------------------

TEST(RegistryPolicies, WearQuotaAndStartGapCompileCorrectPrograms) {
  const auto graph = test::random_mig(17, 9, 90, 5);
  for (const auto* spec :
       {"rewrite=endurance,select=wear_quota:quota=4,alloc=min_write",
        "full,alloc=start_gap:interval=8",
        "rewrite=endurance,select=wear_quota:quota=2,alloc=start_gap"}) {
    const auto config = PipelineConfig::parse(spec);
    const auto prepared = core::prepare(graph, config);
    const auto report = core::compile_prepared(prepared, config);
    EXPECT_TRUE(plim::program_matches_mig(report.program, prepared, 10, 5))
        << spec;
  }
}

TEST(RegistryPolicies, WearQuotaDiffersFromPlainEndurance) {
  // quota=1 rotates after every node — the schedule must diverge from
  // Algorithm 3's strict level ascent on a graph with enough levels.
  const auto graph = bench::make_adder(16);
  const auto base = core::run_pipeline(
      graph, PipelineConfig::parse("rewrite=endurance,select=endurance,"
                                   "alloc=min_write"));
  const auto quota = core::run_pipeline(
      graph, PipelineConfig::parse("rewrite=endurance,select=wear_quota:"
                                   "quota=1,alloc=min_write"));
  EXPECT_NE(base.writes.stdev, quota.writes.stdev);
}

TEST(RegistryPolicies, StartGapRotationDiffersFromRoundRobin) {
  const auto graph = bench::make_adder(16);
  const auto round_robin = core::run_pipeline(
      graph,
      PipelineConfig::parse("rewrite=endurance,select=endurance,"
                            "alloc=round_robin"));
  const auto start_gap = core::run_pipeline(
      graph, PipelineConfig::parse("rewrite=endurance,select=endurance,"
                                   "alloc=start_gap:interval=1"));
  EXPECT_NE(round_robin.writes.stdev, start_gap.writes.stdev);
}

TEST(RegistryPolicies, PresetReportsMatchEnumBackedCompiler) {
  // The preset path and a compiler built straight from the policy specs
  // must produce identical programs — the presets are the same policies.
  const auto graph = test::random_mig(55, 8, 70, 4);
  const auto via_config = core::run_pipeline(
      graph, core::make_config(Strategy::MinWrite), "x");
  const auto prepared = registry::make_rewrite({"plim21", {}})(graph, nullptr);
  const auto via_enums =
      plim::PlimCompiler({{"plim21", {}}, {"min_write", {}}}).compile(prepared);
  EXPECT_EQ(via_config.instructions, via_enums.num_instructions());
  EXPECT_EQ(via_config.rrams, via_enums.num_cells);
  EXPECT_DOUBLE_EQ(via_config.writes.stdev, via_enums.write_stats.stdev);
}

// ---- downstream registration -----------------------------------------------

TEST(RegistryPolicies, DownstreamPoliciesComposeWithTheSpecGrammar) {
  // Register a trivial custom selector once and drive it through the whole
  // pipeline purely by spec string — the pluggability contract.
  static bool registered = false;
  if (!registered) {
    plim::selectors().add(
        {"test_reverse", "newest candidate first (test-only)", {}},
        [](const util::Params&) -> plim::SelectorPtr {
          class ReverseSelector final : public plim::Selector {
          public:
            plim::SelectionKey priority(
                const plim::CandidateInfo& info) override {
              return {~info.gate, 0, 0};
            }
          };
          return std::make_unique<ReverseSelector>();
        });
    registered = true;
  }
  EXPECT_THROW(plim::selectors().add({"test_reverse", "dup", {}},
                                     plim::SelectorFactory{}),
               Error);

  const auto graph = test::random_mig(7, 8, 60, 4);
  const auto config =
      PipelineConfig::parse("rewrite=none,select=test_reverse,alloc=lifo");
  EXPECT_EQ(PipelineConfig::parse(config.canonical_key()), config);
  const auto report = core::run_pipeline(graph, config, "custom");
  EXPECT_TRUE(
      plim::program_matches_mig(report.program, graph.cleanup(), 10, 3));
}

}  // namespace
}  // namespace rlim
