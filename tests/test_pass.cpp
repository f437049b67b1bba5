#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/arithmetic.hpp"
#include "core/config.hpp"
#include "core/endurance.hpp"
#include "core/registry.hpp"
#include "mig/io.hpp"
#include "mig/rewriting.hpp"
#include "mig/simulate.hpp"
#include "pass/dump.hpp"
#include "pass/pass.hpp"
#include "pass/seq.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rlim {
namespace {

using core::PipelineConfig;

/// Canonical text of a graph — the byte-identity oracle of this suite.
std::string graph_text(const mig::Mig& graph) {
  std::ostringstream os;
  mig::write_mig(graph, os);
  return os.str();
}

/// The deterministic slice of a per-pass breakdown (wall time zeroed), so
/// two runs' telemetry can be compared exactly.
std::vector<mig::PassStats> without_wall(std::vector<mig::PassStats> per_pass) {
  for (auto& pass : per_pass) {
    pass.wall_ns = 0;
  }
  return per_pass;
}

/// The deterministic per-pass breakdown as text: one
/// "name runs applications gate_delta complement_delta depth_delta" group
/// per pipeline position.
std::string render(const std::vector<mig::PassStats>& per_pass) {
  std::string out;
  for (const auto& pass : per_pass) {
    out += (out.empty() ? "" : ", ") + pass.name + ' ' +
           std::to_string(pass.runs) + ' ' +
           std::to_string(pass.applications) + ' ' +
           std::to_string(pass.gate_delta) + ' ' +
           std::to_string(pass.complement_delta) + ' ' +
           std::to_string(pass.depth_delta);
  }
  return out;
}

/// Runs the registered rewrite flow `key` at `effort`.
mig::Mig rewrite_with(std::string_view key, int effort, const mig::Mig& graph,
                      mig::RewriteStats* stats) {
  return pass::make_rewrite(
      {std::string(key), {{"effort", std::to_string(effort)}}})(graph, stats);
}

class PassEnv : public ::testing::Test {};

// ---- registry ---------------------------------------------------------------

TEST_F(PassEnv, BuiltinPassesConstructAndSelfDescribe) {
  for (const auto& info : pass::passes().list()) {
    const auto built = pass::make_pass({info.key, {}});
    ASSERT_NE(built, nullptr) << info.key;
    EXPECT_EQ(built->name(), info.key);
    EXPECT_EQ(built->params().size(), info.params.size()) << info.key;
  }
  EXPECT_THROW(static_cast<void>(pass::make_pass({"warp", {}})), Error);
}

TEST_F(PassEnv, EveryBuiltinPassPreservesFunction) {
  const auto graph = test::random_mig(91, 6, 60, 4);
  mig::RewriteStats stats;
  for (const auto& info : pass::passes().list()) {
    pass::PassManager manager;
    manager.add(pass::make_pass({info.key, {}}));
    const auto out = manager.run(graph, 2, &stats);
    EXPECT_TRUE(equivalent_exhaustive(graph, out)) << info.key;
  }
}

TEST_F(PassEnv, SplitPassListValidates) {
  EXPECT_EQ(pass::split_pass_list("maj"), (std::vector<std::string>{"maj"}));
  EXPECT_EQ(pass::split_pass_list("maj,dist,inv3"),
            (std::vector<std::string>{"maj", "dist", "inv3"}));
  EXPECT_THROW(static_cast<void>(pass::split_pass_list("")), Error);
  EXPECT_THROW(static_cast<void>(pass::split_pass_list("maj,,dist")), Error);
  EXPECT_THROW(static_cast<void>(pass::split_pass_list("maj,")), Error);
  EXPECT_THROW(static_cast<void>(pass::make_manager("maj,bogus")), Error);
  EXPECT_THROW(static_cast<void>(pass::make_manager("maj,dist", "inv")),
               Error);
}

// ---- paper flows ------------------------------------------------------------

TEST_F(PassEnv, PaperFlowsArePinned) {
  // Every paper flow, at three efforts, on three graphs, run through the
  // registry. The values were recorded from the hand-written flow loop that
  // PassManager replaced, so they pin both the pass lists and the loop:
  // reordering a flow's passes, changing the cycle/fixpoint logic, or
  // changing an axiom pass moves them.
  const mig::Mig graphs[] = {test::random_mig(3, 8, 120, 6),
                             test::random_mig(77, 5, 40, 3),
                             bench::make_adder(16)};
  struct Golden {
    const char* flow;
    std::size_t graph;
    int effort;
    std::uint64_t text_hash;  ///< util::fnv1a64 of graph_text(out)
    int cycles_run;
    std::size_t total_applications;
    const char* per_pass;  ///< render(stats.per_pass)
  };
  const Golden goldens[] = {
      {"plim21", 0, 0, 0xfb2541ff6bc1d4fd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, assoc 0 0 0 0 0, comp 0 0 0 0 0, "
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"plim21", 0, 1, 0xd8df364d8610f6a7, 1, 16,
       "maj 1 0 0 0 0, dist 1 0 0 0 0, assoc 1 0 0 0 0, comp 1 1 0 -1 0, "
       "maj 1 0 0 0 0, dist 1 0 0 0 0, inv 1 15 0 -21 0, inv3 1 0 0 0 0"},
      {"plim21", 0, 5, 0xd8df364d8610f6a7, 2, 16,
       "maj 2 0 0 0 0, dist 2 0 0 0 0, assoc 2 0 0 0 0, comp 2 1 0 -1 0, "
       "maj 2 0 0 0 0, dist 2 0 0 0 0, inv 2 15 0 -21 0, inv3 2 0 0 0 0"},
      {"plim21", 1, 0, 0x080594e3311e6e4a, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, assoc 0 0 0 0 0, comp 0 0 0 0 0, "
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"plim21", 1, 1, 0x0713c3e8ac3d22be, 1, 7,
       "maj 1 0 0 0 0, dist 1 1 -1 0 0, assoc 1 0 0 0 0, comp 1 1 -1 -1 -1, "
       "maj 1 0 0 0 0, dist 1 0 0 0 0, inv 1 5 0 -3 0, inv3 1 0 0 0 0"},
      {"plim21", 1, 5, 0xc584be040589c42f, 3, 8,
       "maj 3 0 0 0 0, dist 3 1 -1 0 0, assoc 3 0 0 0 0, comp 3 2 -1 -2 -1, "
       "maj 3 0 0 0 0, dist 3 0 0 0 0, inv 3 5 0 -3 0, inv3 3 0 0 0 0"},
      {"plim21", 2, 0, 0x446a1859dfa833dd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, assoc 0 0 0 0 0, comp 0 0 0 0 0, "
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"plim21", 2, 1, 0x1bdd11e4f6a88a66, 1, 65,
       "maj 1 0 0 0 0, dist 1 5 -5 -6 0, assoc 1 0 0 0 0, comp 1 0 0 0 0, "
       "maj 1 0 0 0 0, dist 1 0 0 0 0, inv 1 60 -2 -125 0, inv3 1 0 0 0 0"},
      {"plim21", 2, 5, 0x1084099158d137e6, 3, 68,
       "maj 3 0 0 0 0, dist 3 8 -8 -6 0, assoc 3 0 0 0 0, comp 3 0 0 0 0, "
       "maj 3 0 0 0 0, dist 3 0 0 0 0, inv 3 60 -2 -125 0, inv3 3 0 0 0 0"},
      {"endurance", 0, 0, 0xfb2541ff6bc1d4fd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "assoc 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"endurance", 0, 1, 0xa62169714651c301, 1, 15,
       "maj 1 0 0 0 0, dist 1 0 0 0 0, inv 1 15 0 -23 0, inv3 1 0 0 0 0, "
       "assoc 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 0 0 0 0, inv3 1 0 0 0 0"},
      {"endurance", 0, 5, 0xa62169714651c301, 2, 15,
       "maj 2 0 0 0 0, dist 2 0 0 0 0, inv 2 15 0 -23 0, inv3 2 0 0 0 0, "
       "assoc 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 0 0 0 0, inv3 2 0 0 0 0"},
      {"endurance", 1, 0, 0x080594e3311e6e4a, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "assoc 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"endurance", 1, 1, 0x2783c15df12922b4, 1, 6,
       "maj 1 0 0 0 0, dist 1 1 -1 0 0, inv 1 5 0 -3 0, inv3 1 0 0 0 0, "
       "assoc 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 0 0 0 0, inv3 1 0 0 0 0"},
      {"endurance", 1, 5, 0x2783c15df12922b4, 2, 6,
       "maj 2 0 0 0 0, dist 2 1 -1 0 0, inv 2 5 0 -3 0, inv3 2 0 0 0 0, "
       "assoc 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 0 0 0 0, inv3 2 0 0 0 0"},
      {"endurance", 2, 0, 0x446a1859dfa833dd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "assoc 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"endurance", 2, 1, 0x1084099158d137e6, 1, 68,
       "maj 1 0 0 0 0, dist 1 5 -5 -6 0, inv 1 60 -2 -125 0, inv3 1 0 0 0 0, "
       "assoc 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 3 -3 0 0, inv3 1 0 0 0 0"},
      {"endurance", 2, 5, 0x1084099158d137e6, 2, 68,
       "maj 2 0 0 0 0, dist 2 5 -5 -6 0, inv 2 60 -2 -125 0, inv3 2 0 0 0 0, "
       "assoc 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 3 -3 0 0, inv3 2 0 0 0 0"},
      {"level_balanced", 0, 0, 0xfb2541ff6bc1d4fd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "relief 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"level_balanced", 0, 1, 0xa62169714651c301, 1, 15,
       "maj 1 0 0 0 0, dist 1 0 0 0 0, inv 1 15 0 -23 0, inv3 1 0 0 0 0, "
       "relief 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 0 0 0 0, inv3 1 0 0 0 0"},
      {"level_balanced", 0, 5, 0xa62169714651c301, 2, 15,
       "maj 2 0 0 0 0, dist 2 0 0 0 0, inv 2 15 0 -23 0, inv3 2 0 0 0 0, "
       "relief 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 0 0 0 0, inv3 2 0 0 0 0"},
      {"level_balanced", 1, 0, 0x080594e3311e6e4a, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "relief 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"level_balanced", 1, 1, 0x2783c15df12922b4, 1, 6,
       "maj 1 0 0 0 0, dist 1 1 -1 0 0, inv 1 5 0 -3 0, inv3 1 0 0 0 0, "
       "relief 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 0 0 0 0, inv3 1 0 0 0 0"},
      {"level_balanced", 1, 5, 0x2783c15df12922b4, 2, 6,
       "maj 2 0 0 0 0, dist 2 1 -1 0 0, inv 2 5 0 -3 0, inv3 2 0 0 0 0, "
       "relief 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 0 0 0 0, inv3 2 0 0 0 0"},
      {"level_balanced", 2, 0, 0x446a1859dfa833dd, 0, 0,
       "maj 0 0 0 0 0, dist 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, "
       "relief 0 0 0 0 0, inv 0 0 0 0 0, inv3 0 0 0 0 0, maj 0 0 0 0 0, "
       "dist 0 0 0 0 0, inv3 0 0 0 0 0"},
      {"level_balanced", 2, 1, 0x1084099158d137e6, 1, 68,
       "maj 1 0 0 0 0, dist 1 5 -5 -6 0, inv 1 60 -2 -125 0, inv3 1 0 0 0 0, "
       "relief 1 0 0 0 0, inv 1 0 0 0 0, inv3 1 0 0 0 0, maj 1 0 0 0 0, "
       "dist 1 3 -3 0 0, inv3 1 0 0 0 0"},
      {"level_balanced", 2, 5, 0x1084099158d137e6, 2, 68,
       "maj 2 0 0 0 0, dist 2 5 -5 -6 0, inv 2 60 -2 -125 0, inv3 2 0 0 0 0, "
       "relief 2 0 0 0 0, inv 2 0 0 0 0, inv3 2 0 0 0 0, maj 2 0 0 0 0, "
       "dist 2 3 -3 0 0, inv3 2 0 0 0 0"},
  };
  ASSERT_EQ(std::size(goldens), 27u);
  for (const auto& golden : goldens) {
    mig::RewriteStats stats;
    const auto out =
        rewrite_with(golden.flow, golden.effort, graphs[golden.graph], &stats);
    const auto where = std::string(golden.flow) + " graph " +
                       std::to_string(golden.graph) + " effort " +
                       std::to_string(golden.effort);
    EXPECT_EQ(util::fnv1a64(graph_text(out)), golden.text_hash) << where;
    EXPECT_EQ(stats.cycles_run, golden.cycles_run) << where;
    EXPECT_EQ(stats.total_applications, golden.total_applications) << where;
    EXPECT_EQ(render(stats.per_pass), golden.per_pass) << where;
  }
}

TEST_F(PassEnv, PerPassBreakdownIsConsistentWithTotals) {
  const auto graph = bench::make_adder(16);
  mig::RewriteStats stats;
  const auto out = rewrite_with("endurance", 5, graph, &stats);
  const auto keys =
      pass::split_pass_list(pass::paper_flow_passes("endurance"));
  ASSERT_EQ(stats.per_pass.size(), keys.size());
  std::size_t applications = 0;
  std::int64_t gate_delta = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(stats.per_pass[i].name, keys[i]);
    EXPECT_EQ(stats.per_pass[i].runs,
              static_cast<std::uint64_t>(stats.cycles_run));
    applications += stats.per_pass[i].applications;
    gate_delta += stats.per_pass[i].gate_delta;
  }
  EXPECT_EQ(applications, stats.total_applications);
  // The pass deltas account for everything the cycles changed; the initial
  // cleanup happens before the first pass, so compare against the cleaned
  // gate count.
  EXPECT_EQ(static_cast<std::int64_t>(graph.cleanup().num_gates()) +
                gate_delta,
            static_cast<std::int64_t>(out.num_gates()));
}

// ---- until ------------------------------------------------------------------

TEST_F(PassEnv, UntilEqualsPrefixSequence) {
  const auto graph = test::random_mig(13, 7, 90, 5);
  const auto full =
      pass::split_pass_list(pass::paper_flow_passes("endurance"));
  // Running until pass k must equal running the k-prefix sequence, for every
  // prefix cut at the *first* occurrence of the pass name.
  std::set<std::string> seen;
  for (std::size_t k = 0; k < full.size(); ++k) {
    if (!seen.insert(full[k]).second) {
      continue;  // until stops at the first occurrence — later cuts differ
    }
    std::string prefix;
    for (std::size_t i = 0; i <= k; ++i) {
      prefix += (i != 0 ? "," : "") + full[i];
    }
    mig::RewriteStats until_stats;
    const auto via_until =
        pass::make_manager(pass::paper_flow_passes("endurance"), full[k])
            .run(graph, 3, &until_stats);
    mig::RewriteStats prefix_stats;
    const auto via_prefix =
        pass::make_manager(prefix).run(graph, 3, &prefix_stats);
    EXPECT_EQ(graph_text(via_until), graph_text(via_prefix)) << full[k];
    EXPECT_EQ(without_wall(until_stats.per_pass),
              without_wall(prefix_stats.per_pass))
        << full[k];
  }
}

TEST_F(PassEnv, UntilValidatesAtRunTime) {
  pass::PassManager manager;
  manager.add(pass::make_pass({"maj", {}})).until("dist");
  EXPECT_THROW(static_cast<void>(manager.run(test::random_mig(1, 4, 10, 2), 1)),
               Error);
  EXPECT_THROW(static_cast<void>(manager.run(test::random_mig(1, 4, 10, 2),
                                             -1)),
               Error);
}

// ---- dumps ------------------------------------------------------------------

TEST_F(PassEnv, DumpAfterPassIsDeterministic) {
  const auto graph = test::random_mig(29, 6, 50, 4);
  const auto run_with_dump = [&] {
    std::ostringstream dumps;
    auto manager = pass::make_manager("maj,dist,inv");
    manager.on_dump(pass::dump_to_stream(dumps));
    static_cast<void>(manager.run(graph, 2));
    return dumps.str();
  };
  const auto first = run_with_dump();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_with_dump());  // byte-identical across runs
  EXPECT_NE(first.find("== cycle 0 step 0: maj =="), std::string::npos);
  EXPECT_NE(first.find("# MIG: "), std::string::npos);
}

TEST_F(PassEnv, DumpToDirectoryWritesOneDeterministicFilePerPass) {
  const auto graph = test::random_mig(31, 5, 30, 3);
  const auto dir = test::scratch_dir() / "rlim_pass_dumps";
  auto manager = pass::make_manager("maj,dist");
  manager.on_dump(pass::dump_to_directory(dir.string()));
  static_cast<void>(manager.run(graph, 1));

  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  ASSERT_EQ(names, (std::vector<std::string>{"cycle00_step00_maj.txt",
                                             "cycle00_step01_dist.txt"}));
  // The final dump equals a direct dump of the final graph.
  std::ostringstream expected;
  pass::dump_graph(manager.run(graph, 1), expected);
  std::ifstream last(dir / "cycle00_step01_dist.txt");
  std::stringstream actual;
  actual << last.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());
  std::filesystem::remove_all(dir);
}

// ---- seq specs through the config grammar -----------------------------------

TEST_F(PassEnv, SeqSpecCanonicalKeyRoundTrips) {
  const auto config = PipelineConfig::parse(
      "rewrite=seq:passes=maj,dist,inv,inv3:effort=3:until=inv,"
      "select=endurance,alloc=min_write,cap=64");
  EXPECT_EQ(config.rewrite.key, "seq");
  EXPECT_EQ(config.rewrite.params.at("passes"), "maj,dist,inv,inv3");
  EXPECT_EQ(config.rewrite.params.at("until"), "inv");
  EXPECT_EQ(config.effort(), 3);
  const auto key = config.canonical_key();
  EXPECT_EQ(key,
            "rewrite=seq:effort=3:passes=maj,dist,inv,inv3:until=inv,"
            "select=endurance,alloc=min_write,cap=64");
  EXPECT_EQ(PipelineConfig::parse(key), config);
  EXPECT_EQ(PipelineConfig::parse(key).canonical_key(), key);
}

TEST_F(PassEnv, SeqSpecRejectsInvalidPassLists) {
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse(
                   "rewrite=seq:passes=maj,warp,select=naive,alloc=lifo")),
               Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse(
                   "rewrite=seq:passes=maj:until=dist,select=naive,"
                   "alloc=lifo")),
               Error);
  EXPECT_THROW(static_cast<void>(PipelineConfig::parse(
                   "rewrite=seq:passes=maj:effort=-2,select=naive,"
                   "alloc=lifo")),
               Error);
}

TEST_F(PassEnv, SeqFlowMatchesEnumFlowThroughTheFullPipeline) {
  // End to end through core::run_pipeline: a seq spec spelled as the
  // endurance flow's pass list produces the identical report.
  const auto graph = test::random_mig(41, 8, 80, 5);
  const auto via_enum = core::run_pipeline(
      graph,
      PipelineConfig::parse("rewrite=endurance,select=endurance,"
                            "alloc=min_write"),
      "x");
  const auto via_seq = core::run_pipeline(
      graph,
      PipelineConfig::parse(
          "rewrite=seq:passes=" +
          std::string(pass::paper_flow_passes("endurance")) +
          ",select=endurance,alloc=min_write"),
      "x");
  EXPECT_EQ(via_enum.instructions, via_seq.instructions);
  EXPECT_EQ(via_enum.rrams, via_seq.rrams);
  EXPECT_DOUBLE_EQ(via_enum.writes.stdev, via_seq.writes.stdev);
  EXPECT_EQ(via_enum.gates_after_rewrite, via_seq.gates_after_rewrite);
}

// ---- downstream registration ------------------------------------------------

TEST_F(PassEnv, DownstreamPassesComposeWithSeqSpecs) {
  // Register a custom pass once and drive it through the config grammar —
  // the same pluggability contract as the selector/allocator registries.
  static bool registered = false;
  if (!registered) {
    pass::passes().add(
        {"test_noop", "does nothing (test-only)", {}},
        [](const util::Params& params) -> pass::PassPtr {
          class NoopPass final : public pass::Pass {
          public:
            explicit NoopPass(util::Params params)
                : params_(std::move(params)) {}
            std::string_view name() const override { return "test_noop"; }
            const util::Params& params() const override { return params_; }
            void run(mig::Mig&, pass::PassStats&) const override {}

          private:
            util::Params params_;
          };
          return std::make_shared<NoopPass>(params);
        });
    registered = true;
  }
  const auto graph = test::random_mig(59, 6, 40, 3);
  const auto config = PipelineConfig::parse(
      "rewrite=seq:passes=test_noop,maj,test_noop,select=naive,alloc=lifo");
  EXPECT_EQ(PipelineConfig::parse(config.canonical_key()), config);
  const auto report = core::run_pipeline(graph, config, "noop");
  EXPECT_EQ(report.gates_before_rewrite, graph.num_gates());
}

}  // namespace
}  // namespace rlim
