#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>

#include "core/endurance.hpp"
#include "core/registry.hpp"
#include "fault/array.hpp"
#include "fault/fault.hpp"
#include "fault/sweep.hpp"
#include "plim/allocator.hpp"
#include "plim/controller.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim {
namespace {

using core::PipelineConfig;

// ---- model registry and spec grammar ---------------------------------------

TEST(FaultModels, RegistryListsTheBuiltins) {
  std::set<std::string> keys;
  for (const auto& info : fault::models().list()) {
    keys.insert(info.key);
  }
  for (const auto* key : {"none", "stuck", "drift", "variation", "mixed"}) {
    EXPECT_TRUE(keys.count(key)) << key;
  }
}

TEST(FaultModels, NoneIsDisabledAndEverythingElseEnabled) {
  EXPECT_FALSE(fault::make_sweep({"none", {}}).enabled);
  EXPECT_FALSE(fault::active({"none", {}}));
  for (const auto* key : {"stuck", "drift", "variation", "mixed"}) {
    EXPECT_TRUE(fault::make_sweep({key, {}}).enabled) << key;
    EXPECT_TRUE(fault::active({key, {}})) << key;
  }
}

TEST(FaultModels, StuckSpecMapsOntoTheProfile) {
  const auto spec = fault::make_sweep(
      {"stuck",
       {{"rate", "0.01"}, {"wear_rate", "1e-3"}, {"repair", "remap"},
        {"spares", "8"}, {"endurance", "100"}, {"sigma", "0.5"},
        {"seed", "9"}, {"trials", "7"}, {"runs", "50"}}});
  EXPECT_DOUBLE_EQ(spec.profile.logic.stuck_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.profile.logic.wear_stuck_rate, 1e-3);
  EXPECT_EQ(spec.profile.logic, spec.profile.memory);
  EXPECT_EQ(spec.profile.repair, fault::Repair::Remap);
  EXPECT_EQ(spec.profile.spares, 8u);
  EXPECT_EQ(spec.profile.endurance, 100u);
  EXPECT_DOUBLE_EQ(spec.profile.sigma, 0.5);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.trials, 7u);
  EXPECT_EQ(spec.runs, 50u);
}

TEST(FaultModels, MixedSpecSeparatesTheRegions) {
  const auto spec = fault::make_sweep(
      {"mixed",
       {{"mem_rate", "0.001"}, {"logic_rate", "0.02"}, {"logic_wear", "3"}}});
  EXPECT_DOUBLE_EQ(spec.profile.memory.stuck_rate, 0.001);
  EXPECT_DOUBLE_EQ(spec.profile.logic.stuck_rate, 0.02);
  EXPECT_EQ(spec.profile.logic.wear_per_write, 3u);
  EXPECT_EQ(spec.profile.memory.wear_per_write, 1u);
}

TEST(FaultModels, RejectsBadParameters) {
  // Probabilities outside [0, 1], malformed numbers, unknown params.
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "1.5"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "-0.1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "lots"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"bogus", "1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"trials", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"runs", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"sigma", "-1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"repair", "magic"}}}), Error);
  // repair=remap without spares is a configuration error, not a silent no-op.
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"repair", "remap"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"mixed", {{"logic_wear", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"unheard_of", {}}), Error);
}

TEST(FaultModels, ConfigSpecRoundTripsThroughTheCanonicalKey) {
  // Same property style as the PR-3 config tests: parse(canonical_key())
  // reproduces the config for fault clauses, defaults filled.
  const auto config = PipelineConfig::parse(
      "full,fault=stuck:rate=1e-3:repair=remap:spares=4:trials=5");
  EXPECT_EQ(config.fault.key, "stuck");
  EXPECT_EQ(config.fault.params.at("rate"), "1e-3");
  EXPECT_EQ(config.fault.params.at("runs"), "500");  // default filled
  const auto key = config.canonical_key();
  EXPECT_NE(key.find("fault=stuck:"), std::string::npos);
  EXPECT_EQ(PipelineConfig::parse(key), config);
  EXPECT_EQ(PipelineConfig::parse(key).canonical_key(), key);
}

TEST(FaultModels, DefaultConfigKeyHasNoFaultClause) {
  // Byte-stability of pre-fault keys: the five paper presets must hash and
  // cache exactly as before the fault dimension existed.
  for (const auto& [alias, strategy] : core::strategy_aliases()) {
    const auto key = core::make_config(strategy).canonical_key();
    EXPECT_EQ(key.find("fault"), std::string::npos) << alias;
    EXPECT_EQ(PipelineConfig::parse(std::string(alias)).canonical_key(), key);
  }
}

// ---- FaultArray ------------------------------------------------------------

TEST(FaultArray, NoFaultsBehavesLikeTheBaseArray) {
  fault::FaultProfile clean;
  fault::FaultArray array(8, clean, 1);
  array.write(3, 42);
  EXPECT_EQ(array.read(3), 42u);
  EXPECT_EQ(array.write_count(3), 1u);
  EXPECT_FALSE(array.is_failed(3));
  EXPECT_EQ(array.failed_cell_count(), 0u);
  array.reset_values();
  EXPECT_EQ(array.read(3), 0u);
}

TEST(FaultArray, ManufacturingStuckCellsIgnoreWritesAndPreloads) {
  fault::FaultProfile profile;
  profile.logic.stuck_rate = 1.0;  // every cell stuck at construction
  fault::FaultArray array(4, profile, 7);
  EXPECT_EQ(array.stuck_cell_count(), 4u);
  EXPECT_EQ(array.failed_cell_count(), 4u);
  for (plim::Cell cell = 0; cell < 4; ++cell) {
    EXPECT_TRUE(array.is_stuck(cell));
    EXPECT_TRUE(array.is_failed(cell));
    const auto before = array.read(cell);
    array.write(cell, ~before);
    array.preload(cell, ~before);
    EXPECT_EQ(array.read(cell), before);  // value pinned
  }
  EXPECT_EQ(array.dropped_writes(), 8u);
  array.reset_values();
  // Stuck values survive reset (they are physical, not stored charge).
  EXPECT_EQ(array.stuck_cell_count(), 4u);
}

TEST(FaultArray, StuckValuesAreDeterministicInTheSeed) {
  fault::FaultProfile profile;
  profile.logic.stuck_rate = 0.5;
  for (const std::uint64_t seed : {1ull, 99ull, 12345ull}) {
    fault::FaultArray a(64, profile, seed);
    fault::FaultArray b(64, profile, seed);
    EXPECT_EQ(a.stuck_cell_count(), b.stuck_cell_count());
    for (plim::Cell cell = 0; cell < 64; ++cell) {
      EXPECT_EQ(a.is_stuck(cell), b.is_stuck(cell));
      EXPECT_EQ(a.read(cell), b.read(cell));
    }
  }
  // And different seeds give different defect maps (overwhelmingly likely
  // over 64 cells at rate 0.5).
  fault::FaultArray a(64, profile, 1);
  fault::FaultArray b(64, profile, 2);
  bool differs = a.stuck_cell_count() != b.stuck_cell_count();
  for (plim::Cell cell = 0; !differs && cell < 64; ++cell) {
    differs = a.is_stuck(cell) != b.is_stuck(cell);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultArray, DriftDisturbsReadsPersistently) {
  fault::FaultProfile profile;
  profile.logic.drift_rate = 1.0;  // every read disturbs
  fault::FaultArray array(2, profile, 3);
  array.write(0, 0);
  const auto first = array.read(0);
  EXPECT_EQ(std::popcount(first), 1);  // exactly one lane flipped
  EXPECT_EQ(array.disturbed_reads(), 1u);
  // The disturbance is persistent: the next read starts from the disturbed
  // word and flips one more lane (possibly the same one back).
  const auto second = array.read(0);
  EXPECT_LE(std::popcount(first ^ second), 1);
  EXPECT_EQ(array.disturbed_reads(), 2u);
}

TEST(FaultArray, WriteVariabilityWearsWithoutLatching) {
  fault::FaultProfile profile;
  profile.logic.write_fail_rate = 1.0;  // every pulse fails to latch
  fault::FaultArray array(2, profile, 3);
  array.write(0, 7);
  EXPECT_EQ(array.read(0), 0u);         // value unchanged
  EXPECT_EQ(array.write_count(0), 1u);  // wear still accrued
}

TEST(FaultArray, MixedModeWearsLogicCellsFaster) {
  fault::FaultProfile profile;
  profile.logic.wear_per_write = 3;
  std::vector<bool> memory = {true, false};
  fault::FaultArray array(2, profile, 5, std::move(memory));
  array.write(0, 1);  // memory-mode: wear 1
  array.write(1, 1);  // logic-mode: wear 3
  EXPECT_EQ(array.write_count(0), 1u);
  EXPECT_EQ(array.write_count(1), 3u);
}

TEST(FaultArray, RemapRedirectsToHealthySpares) {
  fault::FaultProfile profile;
  profile.endurance = 2;
  profile.repair = fault::Repair::Remap;
  profile.spares = 1;
  fault::FaultArray array(2, profile, 11);
  array.write(0, 1);
  array.write(0, 2);
  EXPECT_TRUE(array.is_failed(0));  // wear limit reached, no spare used yet
  array.write(0, 3);                // triggers the remap, then latches
  EXPECT_EQ(array.remapped_count(), 1u);
  EXPECT_FALSE(array.is_failed(0));
  EXPECT_EQ(array.read(0), 3u);
  // The single spare is spent: once it wears out there is nowhere to go.
  array.write(0, 4);  // spare's second write reaches its own limit
  EXPECT_TRUE(array.is_failed(0));
  array.write(0, 5);
  EXPECT_EQ(array.dropped_writes(), 1u);
  EXPECT_EQ(array.read(0), 4u);
}

TEST(FaultArray, LargeSigmaStillDrawsPositiveLimits) {
  // Satellite regression: extreme endurance_sigma must clamp to limit >= 1
  // in the underlying variability draw, never 0 or negative.
  fault::FaultProfile profile;
  profile.endurance = 100;
  profile.sigma = 10.0;
  fault::FaultArray array(256, profile, 17);
  for (plim::Cell cell = 0; cell < 256; ++cell) {
    const auto limit = array.endurance_of(cell);
    ASSERT_TRUE(limit.has_value());
    EXPECT_GE(*limit, 1u);
  }
}

TEST(FaultArray, RejectsBadMemoryMask) {
  EXPECT_THROW(fault::FaultArray(4, {}, 1, std::vector<bool>(3, false)), Error);
}

TEST(FaultArray, ExecuteMatchesPerInstructionSteps) {
  // Differential: the inlined kernel against PlimController::step's virtual
  // read/write path, on two identically seeded arrays with every fault
  // mechanism and remapping active. Equal cells, wear and counters mean the
  // kernel draws the fault stream in the same order. Odd seeds run without
  // drift, which the kernel reads through a draw-free path.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const bool drift = seed % 2 == 0;
    fault::FaultProfile profile;
    profile.logic = {.stuck_rate = 0.05,
                     .wear_stuck_rate = 0.01,
                     .drift_rate = drift ? 0.01 : 0.0,
                     .write_fail_rate = 0.02,
                     .wear_per_write = 2};
    profile.memory = {.stuck_rate = 0.02, .drift_rate = drift ? 0.03 : 0.0};
    profile.endurance = 60;
    profile.sigma = 0.5;
    profile.repair = fault::Repair::Remap;
    profile.spares = 6;
    const auto program = test::random_program(seed, 32, 250, 5, 4);
    std::vector<bool> memory(program.num_cells(), false);
    for (const auto cell : program.pi_cells()) {
      memory[cell] = true;
    }
    fault::FaultArray kernel(program.num_cells(), profile, seed, memory);
    fault::FaultArray stepped(program.num_cells(), profile, seed, memory);
    util::Xoshiro256 rng(seed);
    for (int run = 0; run < 6; ++run) {
      kernel.reset_values();
      stepped.reset_values();
      for (const auto cell : program.pi_cells()) {
        const auto word = rng();
        kernel.preload(cell, word);
        stepped.preload(cell, word);
      }
      kernel.execute(program.instructions());
      plim::PlimController controller(stepped);
      controller.start(program);
      while (controller.state() == plim::PlimController::State::Running) {
        controller.step();
      }
      ASSERT_EQ(kernel.write_counts(), stepped.write_counts()) << seed;
      ASSERT_EQ(kernel.disturbed_reads(), stepped.disturbed_reads()) << seed;
      ASSERT_EQ(kernel.dropped_writes(), stepped.dropped_writes()) << seed;
      ASSERT_EQ(kernel.remapped_count(), stepped.remapped_count()) << seed;
      ASSERT_EQ(kernel.stuck_cell_count(), stepped.stuck_cell_count()) << seed;
      // Reads draw drift too, in the same order on both arrays.
      for (plim::Cell cell = 0; cell < program.num_cells(); ++cell) {
        ASSERT_EQ(kernel.read(cell), stepped.read(cell)) << seed << " " << cell;
      }
    }
    EXPECT_EQ(kernel.disturbed_reads() > 0, drift) << seed;
    EXPECT_GT(kernel.remapped_count(), 0u) << seed;
  }
}

TEST(FaultArray, EvaluateChecksTheLogicalCellsNotTheSpares) {
  // Spares widen the physical array, never the cells a program may address.
  fault::FaultProfile profile;
  profile.repair = fault::Repair::Remap;
  profile.spares = 8;
  fault::FaultArray array(4, profile, 1);
  ASSERT_EQ(array.size(), 12u);
  EXPECT_EQ(array.logical_size(), 4u);
  plim::Program program;
  program.bind_pi(0);
  program.append(plim::make_copy_step(0, 5));
  program.bind_po(5);
  const std::vector<std::uint64_t> pis{1};
  EXPECT_THROW(plim::evaluate(program, pis, &array), Error);
  plim::PlimController controller(array);
  EXPECT_THROW(controller.start(program), Error);
}

// ---- allocator decorators --------------------------------------------------

TEST(FaultDecorators, RetireDropsWornCells) {
  // Direct plim::make_allocator use needs the fault library's lazy decorator
  // registration first (the config/registry paths do this themselves).
  fault::ensure_registered();
  auto alloc = plim::make_allocator(
      util::PolicySpec{"retire", {{"threshold", "10"}}});
  alloc->push(0, 9);
  alloc->push(1, 10);  // retired
  alloc->push(2, 11);  // retired
  EXPECT_EQ(alloc->size(), 1u);
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{0});
  EXPECT_EQ(alloc->pop(), std::nullopt);
}

TEST(FaultDecorators, SpareHoldsBackAReserveServedLast) {
  fault::ensure_registered();
  auto alloc =
      plim::make_allocator(util::PolicySpec{"spare", {{"spares", "2"}}});
  alloc->push(0, 0);  // reserve
  alloc->push(1, 0);  // reserve
  alloc->push(2, 5);  // inner
  alloc->push(3, 1);  // inner (min_write serves this first)
  EXPECT_EQ(alloc->size(), 4u);
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{3});
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{2});
  // Inner pool dry — the reserve is served now.
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{1});
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{0});
  EXPECT_EQ(alloc->pop(), std::nullopt);
}

TEST(FaultDecorators, DecoratorsCannotNestAndValidateInner) {
  fault::ensure_registered();
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"inner", "spare"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"spare", {{"inner", "retire"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"inner", "unregistered"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"threshold", "0"}}}),
               Error);
}

TEST(FaultDecorators, DecoratedConfigCompilesACorrectProgram) {
  const auto graph = test::random_mig(23, 8, 70, 4);
  for (const auto* spec :
       {"full,alloc=retire:threshold=8", "full,alloc=spare:spares=2"}) {
    const auto config = PipelineConfig::parse(spec);
    const auto prepared = core::prepare(graph, config);
    const auto report = core::compile_prepared(prepared, config);
    EXPECT_TRUE(plim::program_matches_mig(report.program, prepared, 10, 5))
        << spec;
  }
}

// ---- Monte-Carlo sweeps ----------------------------------------------------

core::EnduranceReport compile_with(const mig::Mig& graph,
                                   const std::string& spec) {
  const auto config = PipelineConfig::parse(spec);
  return core::run_pipeline(graph, config, "t");
}

TEST(FaultSweep, ReportCarriesTheDistributionOnlyWhenRequested) {
  const auto graph = test::random_mig(31, 8, 60, 4);
  const auto plain = compile_with(graph, "full");
  EXPECT_FALSE(plain.fault_sweep.has_value());

  const auto faulty = compile_with(
      graph, "full,fault=stuck:rate=0.01:endurance=50:trials=4:runs=40");
  ASSERT_TRUE(faulty.fault_sweep.has_value());
  const auto& dist = *faulty.fault_sweep;
  EXPECT_EQ(dist.trials, 4u);
  EXPECT_EQ(dist.runs_cap, 40u);
  EXPECT_LE(dist.lifetime_min, dist.lifetime_p50);
  EXPECT_LE(dist.lifetime_p50, dist.lifetime_p99);
  EXPECT_LE(dist.lifetime_p99, dist.lifetime_max);
  EXPECT_LE(dist.lifetime_max, 40u);
  EXPECT_GE(dist.lifetime_mean, static_cast<double>(dist.lifetime_min));
  EXPECT_LE(dist.lifetime_mean, static_cast<double>(dist.lifetime_max));
  EXPECT_LE(dist.failed_cells_min, dist.failed_cells_max);
}

TEST(FaultSweep, SameSeedIsByteIdenticalDifferentSeedDiffers) {
  const auto graph = test::random_mig(37, 8, 60, 4);
  const auto a = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=5:trials=5:runs=50");
  const auto b = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=5:trials=5:runs=50");
  ASSERT_TRUE(a.fault_sweep && b.fault_sweep);
  EXPECT_EQ(*a.fault_sweep, *b.fault_sweep);

  const auto c = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=6:trials=5:runs=50");
  ASSERT_TRUE(c.fault_sweep.has_value());
  EXPECT_NE(*a.fault_sweep, *c.fault_sweep);
}

TEST(FaultSweep, HigherStuckRateShortensLifetimes) {
  const auto graph = test::random_mig(41, 8, 80, 4);
  const auto gentle = compile_with(
      graph, "full,fault=stuck:rate=0.0:endurance=200:trials=4:runs=120");
  const auto harsh = compile_with(
      graph, "full,fault=stuck:rate=0.3:endurance=200:trials=4:runs=120");
  ASSERT_TRUE(gentle.fault_sweep && harsh.fault_sweep);
  // 30% dead cells kill the program essentially immediately; a defect-free
  // array under the same endurance budget lives strictly longer.
  EXPECT_GT(gentle.fault_sweep->lifetime_min, harsh.fault_sweep->lifetime_max);
  EXPECT_GT(harsh.fault_sweep->failed_cells_min, 0u);
}

TEST(FaultSweep, RemapExtendsLifetimeUnderWear) {
  const auto graph = test::random_mig(43, 8, 80, 4);
  const auto base =
      "fault=stuck:rate=0:endurance=40:trials=4:runs=200";
  const auto bare = compile_with(graph, std::string("full,") + base);
  const auto repaired = compile_with(
      graph, std::string("full,") + base + ":repair=remap:spares=64");
  ASSERT_TRUE(bare.fault_sweep && repaired.fault_sweep);
  // With 64 spares absorbing the first exhausted cells, median lifetime
  // must improve over the unrepaired run (wear failure is deterministic
  // here: sigma=0, no stochastic faults).
  EXPECT_GT(repaired.fault_sweep->lifetime_p50, bare.fault_sweep->lifetime_p50);
  EXPECT_GT(repaired.fault_sweep->remapped_total, 0u);
}

TEST(FaultSweep, MixedModeSparesTheMemoryRegion) {
  const auto graph = test::random_mig(47, 8, 60, 4);
  const auto report = compile_with(
      graph,
      "full,fault=mixed:mem_rate=0:logic_rate=0.05:endurance=80:trials=3:"
      "runs=60");
  ASSERT_TRUE(report.fault_sweep.has_value());
  EXPECT_EQ(report.fault_sweep->trials, 3u);
}

TEST(FaultSweep, CensoringReportsTrialsThatNeverFailed) {
  const auto graph = test::random_mig(53, 8, 50, 4);
  // Unlimited endurance, no faults injected: every trial survives the cap.
  const auto report = compile_with(
      graph, "full,fault=stuck:rate=0:endurance=0:trials=3:runs=10");
  ASSERT_TRUE(report.fault_sweep.has_value());
  EXPECT_EQ(report.fault_sweep->censored, 3u);
  EXPECT_EQ(report.fault_sweep->lifetime_min, 10u);
}

TEST(FaultSweep, GoldenDistributionsArePinned) {
  // Full distributions for every model on one fixed program and seed. Any
  // change to the fault stream's draw order, wear accounting or remapping
  // on the execution path moves these.
  const auto graph = test::random_mig(61, 10, 120, 5);
  const auto config = PipelineConfig::parse("full");
  const auto prepared = core::prepare(graph, config);
  const auto program = core::compile_prepared(prepared, config).program;
  struct Golden {
    const char* spec;
    fault::LifetimeDistribution dist;
  };
  const Golden goldens[] = {
      {"stuck:rate=0.02:wear_rate=0.001:endurance=60:seed=3:trials=6:runs=150",
       {6, 150, 0, 0, 5, 5, 5, 2.5, 1, 3, 1.3333333333333333, 0, 42}},
      {"stuck:rate=0.01:wear_rate=0.002:endurance=40:repair=remap:spares=16:"
       "seed=4:trials=6:runs=200",
       {6, 200, 0, 12, 13, 13, 13, 12.833333333333334, 17, 27,
        24.833333333333332, 94, 143}},
      {"drift:rate=0.002:endurance=300:seed=5:trials=6:runs=100",
       {6, 100, 0, 0, 11, 21, 21, 8.1666666666666661, 0, 0, 0, 0, 0}},
      {"variation:fail_rate=0.001:endurance=80:sigma=0.4:seed=6:trials=6:"
       "runs=200",
       {6, 200, 0, 2, 5, 8, 8, 5.166666666666667, 0, 2, 1, 0, 23}},
      {"mixed:mem_rate=0.01:logic_rate=0.03:logic_wear=3:endurance=90:"
       "repair=remap:spares=4:seed=7:trials=6:runs=120",
       {6, 120, 0, 5, 5, 5, 5, 5, 7, 9, 7.666666666666667, 24, 60}},
  };
  for (const auto& golden : goldens) {
    const auto dist = fault::run_sweep(
        program, prepared, fault::make_sweep(util::PolicySpec::parse(golden.spec)));
    EXPECT_EQ(dist, golden.dist) << golden.spec;
  }
}

TEST(FaultSweep, RunSweepRejectsDisabledSpecs) {
  const auto graph = test::random_mig(59, 6, 30, 3);
  const auto report = compile_with(graph, "naive");
  EXPECT_THROW(
      (void)fault::run_sweep(report.program, graph.cleanup(), fault::SweepSpec{}),
      Error);
}

}  // namespace
}  // namespace rlim
