#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "benchmarks/arithmetic.hpp"
#include "benchmarks/suite.hpp"
#include "flow/runner.hpp"
#include "flow/suite.hpp"
#include "store/disk_store.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::flow {
namespace {

std::vector<Job> strategy_sweep(const std::vector<SourcePtr>& sources) {
  std::vector<Job> jobs;
  for (const auto& source : sources) {
    for (const auto strategy : paper_strategies()) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  return jobs;
}

/// Renders a batch's results the way the table drivers do — used to compare
/// runs byte-for-byte.
std::string render(const std::vector<JobResult>& results, ReportFormat format) {
  Report doc;
  doc.title = "sweep";
  doc.columns = {"benchmark", "#I", "#R", "min", "max", "STDEV"};
  for (const auto& result : results) {
    doc.add_row({result.report.benchmark,
                 std::to_string(result.report.instructions),
                 std::to_string(result.report.rrams),
                 std::to_string(result.report.writes.min),
                 std::to_string(result.report.writes.max),
                 std::to_string(result.report.writes.stdev)});
  }
  std::ostringstream os;
  make_sink(format)->write(doc, os);
  return os.str();
}

// ---- sources ---------------------------------------------------------------

TEST(FlowSource, BenchmarkCarriesSpecProfile) {
  const auto source = Source::benchmark("adder");
  EXPECT_EQ(source->label(), "adder");
  EXPECT_EQ(source->pis(), 256u);
  EXPECT_EQ(source->pos(), 129u);
}

TEST(FlowSource, GraphSourceIsImmediatelyAvailable) {
  auto graph = bench::make_adder(4);
  const auto fingerprint = graph.fingerprint();
  const auto source = Source::graph(std::move(graph), "adder4");
  EXPECT_EQ(source->label(), "adder4");
  EXPECT_EQ(source->pis(), 8u);
  EXPECT_EQ(source->fingerprint(), fingerprint);
}

TEST(FlowSource, NetlistRejectsUnknownExtension) {
  EXPECT_THROW(Source::netlist("whatever.v"), Error);
}

TEST(FlowSource, NetlistBenchPrefixResolvesSuite) {
  const auto source = Source::netlist("bench:ctrl");
  EXPECT_EQ(source->label(), "bench:ctrl");
  EXPECT_GT(source->original().num_gates(), 0u);
}

TEST(FlowSource, MissingFileFailsAsJobError) {
  const auto result = run_job({Source::netlist("/nonexistent/x.mig"),
                               core::make_config(core::Strategy::Naive),
                               {}});
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
}

// ---- rewrite cache ---------------------------------------------------------

TEST(FlowCache, FullSuiteSweepRewritesEachBenchmarkExactlyOnce) {
  // The acceptance property of the redesign: a full-suite × all-strategies
  // sweep runs the plim21 and endurance rewrite flows exactly once per
  // benchmark, however many configurations consume them.
  const auto& specs = bench::mini_suite();
  std::vector<SourcePtr> sources;
  for (const auto& spec : specs) {
    sources.push_back(Source::benchmark(spec));
  }
  Runner runner({.jobs = 4});
  const auto results = runner.run(strategy_sweep(sources));
  throw_on_error(results);

  const auto n = specs.size();
  EXPECT_EQ(runner.cache().rewrites("plim21"), n);
  EXPECT_EQ(runner.cache().rewrites("endurance"), n);
  // Naive jobs bypass the rewrite level entirely (they compile the original
  // graph), so the 5 strategies per benchmark touch 2 distinct rewrite keys.
  EXPECT_EQ(runner.cache().rewrites("none"), 0u);
  EXPECT_EQ(runner.cache().misses(), 2 * n);
  EXPECT_EQ(runner.cache().hits(), 5 * n - n - 2 * n);
  // All 5 configs per benchmark are distinct, so the program level compiles
  // each exactly once.
  EXPECT_EQ(runner.cache().program_misses(), 5 * n);
  EXPECT_EQ(runner.cache().program_hits(), 0u);

  // Jobs sharing a cache entry share the rewritten graph instance.
  for (std::size_t b = 0; b < n; ++b) {
    EXPECT_EQ(results[b * 5 + 1].prepared, results[b * 5 + 2].prepared)
        << specs[b].name;  // Plim21 + MinWrite both use rewrite=plim21
    EXPECT_EQ(results[b * 5 + 3].prepared, results[b * 5 + 4].prepared)
        << specs[b].name;  // both endurance flavours
  }
}

TEST(FlowRunner, NaiveJobsCompileTheOriginalGraph) {
  // The paper's naive baseline is "node translation only": rewrite=none
  // must compile the graph exactly as constructed — no cleanup pass — and
  // share the Source's graph instance instead of a cache copy.
  const auto source = Source::benchmark(bench::mini_suite().front());
  const auto result =
      run_job({source, core::make_config(core::Strategy::Naive), {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.prepared.get(), &source->original());
  EXPECT_EQ(result.report.gates_after_rewrite, source->original().num_gates());
  EXPECT_EQ(result.rewrite_stats.initial_gates,
            result.rewrite_stats.final_gates);
}

TEST(FlowCache, CachePersistsAcrossRunnerBatches) {
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  Runner runner({.jobs = 2});
  const auto first =
      runner.run({{source, core::make_config(core::Strategy::FullEndurance), {}}});
  const auto second = runner.run(
      {{source, core::make_config(core::Strategy::FullEndurance, 10), {}}});
  throw_on_error(first);
  throw_on_error(second);
  EXPECT_EQ(runner.cache().rewrites("endurance"), 1u);
  EXPECT_EQ(first.front().prepared, second.front().prepared);
}

TEST(FlowCache, EffortIsPartOfTheKey) {
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  auto low = core::make_config(core::Strategy::FullEndurance);
  low.set_effort(1);
  auto high = core::make_config(core::Strategy::FullEndurance);
  high.set_effort(5);
  Runner runner;
  throw_on_error(runner.run({{source, low, {}}, {source, high, {}}}));
  EXPECT_EQ(runner.cache().rewrites("endurance"), 2u);
}

TEST(FlowCache, IdenticalGraphsShareEntriesAcrossSources) {
  // Content addressing: two distinct Sources with equal graphs hit the same
  // program-cache entry — the second job skips rewrite and compile alike,
  // but still reports under its own label.
  const auto a = Source::graph(bench::make_adder(8), "a");
  const auto b = Source::graph(bench::make_adder(8), "b");
  Runner runner;
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto results = runner.run({{a, config, {}}, {b, config, {}}});
  throw_on_error(results);
  EXPECT_EQ(runner.cache().rewrites("endurance"), 1u);
  EXPECT_EQ(runner.cache().program_misses(), 1u);
  EXPECT_EQ(runner.cache().program_hits(), 1u);
  EXPECT_EQ(results[0].prepared, results[1].prepared);
  EXPECT_EQ(results[0].report.benchmark, "a");
  EXPECT_EQ(results[1].report.benchmark, "b");
  EXPECT_EQ(results[0].report.instructions, results[1].report.instructions);
}

TEST(FlowCache, RepeatedConfigsSkipCompilation) {
  // The program level of the two-level cache: repeated (fingerprint,
  // canonical_key) pairs compile once, under any worker count, and the
  // rendered reports stay byte-identical between serial and parallel runs.
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  std::vector<Job> jobs;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const auto strategy : paper_strategies()) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  Runner serial({.jobs = 1});
  Runner parallel({.jobs = 8});
  const auto serial_results = serial.run(jobs);
  const auto parallel_results = parallel.run(jobs);
  throw_on_error(serial_results);
  throw_on_error(parallel_results);

  for (const auto* runner : {&serial, &parallel}) {
    EXPECT_EQ(runner->cache().program_misses(), 5u);   // distinct configs
    EXPECT_EQ(runner->cache().program_hits(), 15u);    // 3 repeats x 5
    EXPECT_EQ(runner->cache().rewrites("plim21"), 1u);
    EXPECT_EQ(runner->cache().rewrites("endurance"), 1u);
  }
  EXPECT_EQ(render(serial_results, ReportFormat::Csv),
            render(parallel_results, ReportFormat::Csv));
}

TEST(FlowCache, HandAssembledConfigsShareEntriesAfterNormalization) {
  // The program level normalizes before keying: a hand-assembled config
  // that omits defaulted parameters lands on the same entry as the
  // make_config preset with equal behavior.
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  core::PipelineConfig hand;
  hand.rewrite = {"endurance", {}};  // effort default not materialized
  hand.selection = {"endurance", {}};
  hand.allocation = {"min_write", {}};
  Runner runner;
  const auto results = runner.run(
      {{source, hand, {}},
       {source, core::make_config(core::Strategy::FullEndurance), {}}});
  throw_on_error(results);
  EXPECT_EQ(runner.cache().program_misses(), 1u);
  EXPECT_EQ(runner.cache().program_hits(), 1u);
  EXPECT_EQ(results[0].prepared, results[1].prepared);
}

TEST(FlowCache, ProgramCacheCanBeDisabled) {
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  Runner runner({.jobs = 2, .cache_programs = false});
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto results = runner.run({{source, config, {}}, {source, config, {}}});
  throw_on_error(results);
  // Rewrites still shared, but each job compiled on its own.
  EXPECT_EQ(runner.cache().rewrites("endurance"), 1u);
  EXPECT_EQ(runner.cache().hits(), 1u);
  EXPECT_EQ(runner.cache().program_misses(), 0u);
  EXPECT_EQ(results[0].report.instructions, results[1].report.instructions);
}

// ---- persistent disk tier --------------------------------------------------

std::string fresh_store_dir(const std::string& name) {
  const auto dir = test::scratch_dir() / ("flow_store_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(FlowDiskStore, SecondInvocationServesProgramsFromDisk) {
  // The cross-invocation acceptance property: a fresh Runner (fresh
  // in-memory cache — a new process, as far as the cache can tell) against
  // the same store recompiles nothing and renders byte-identical reports.
  const auto dir = fresh_store_dir("programs");
  const auto jobs = strategy_sweep({Source::graph(bench::make_adder(8),
                                                  "adder8")});
  Runner cold({.jobs = 2, .cache_dir = dir});
  const auto cold_results = cold.run(jobs);
  throw_on_error(cold_results);
  ASSERT_NE(cold.cache().disk_store(), nullptr);
  EXPECT_EQ(cold.cache().disk_store()->counters().program_loads, 0u);
  EXPECT_GT(cold.cache().disk_store()->counters().stores, 0u);

  Runner warm({.jobs = 2, .cache_dir = dir});
  const auto warm_results = warm.run(jobs);
  throw_on_error(warm_results);
  const auto counters = warm.cache().disk_store()->counters();
  EXPECT_EQ(counters.program_loads, jobs.size());
  EXPECT_EQ(counters.stores, 0u);
  // Nothing was rewritten or compiled in the warm run...
  EXPECT_EQ(warm.cache().rewrites("plim21"), 0u);
  EXPECT_EQ(warm.cache().rewrites("endurance"), 0u);
  // ...and the output is indistinguishable from the cold run's.
  for (const auto format :
       {ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json}) {
    EXPECT_EQ(render(cold_results, format), render(warm_results, format));
  }
}

TEST(FlowDiskStore, RewriteTierPersistsWhenProgramCachingIsOff) {
  const auto dir = fresh_store_dir("rewrites");
  const auto source = Source::graph(bench::make_adder(8), "adder8");
  const auto config = core::make_config(core::Strategy::FullEndurance);
  Runner cold({.jobs = 1, .cache_programs = false, .cache_dir = dir});
  throw_on_error(cold.run({{source, config, {}}}));
  EXPECT_EQ(cold.cache().rewrites("endurance"), 1u);

  Runner warm({.jobs = 1, .cache_programs = false, .cache_dir = dir});
  throw_on_error(warm.run({{source, config, {}}}));
  EXPECT_EQ(warm.cache().rewrites("endurance"), 0u)
      << "the rewrite must come from disk, not run again";
  EXPECT_EQ(warm.cache().disk_store()->counters().rewrite_loads, 1u);
}

TEST(FlowDiskStore, CorruptedStoreFallsBackToRecomputeAndHeals) {
  const auto dir = fresh_store_dir("corrupt");
  const auto jobs = strategy_sweep({Source::graph(bench::make_adder(8),
                                                  "adder8")});
  Runner cold({.jobs = 2, .cache_dir = dir});
  const auto clean_results = cold.run(jobs);
  throw_on_error(clean_results);

  // Damage every entry in the store (truncation — the frame hash check
  // catches bit-flips the same way, covered in test_store.cpp).
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           store::objects_dir(dir))) {
    if (entry.is_regular_file()) {
      std::filesystem::resize_file(entry.path(), 5);
    }
  }

  Runner recover({.jobs = 2, .cache_dir = dir});
  const auto recovered_results = recover.run(jobs);
  throw_on_error(recovered_results);
  const auto counters = recover.cache().disk_store()->counters();
  EXPECT_EQ(counters.program_loads, 0u);
  EXPECT_GT(counters.evicted_corrupt, 0u);
  EXPECT_GT(counters.stores, 0u) << "recomputed entries are written back";
  EXPECT_EQ(render(clean_results, ReportFormat::Csv),
            render(recovered_results, ReportFormat::Csv));

  // After healing, a third runner is served from disk again.
  Runner warm({.jobs = 2, .cache_dir = dir});
  throw_on_error(warm.run(jobs));
  EXPECT_EQ(warm.cache().disk_store()->counters().program_loads, jobs.size());
}

TEST(FlowDiskStore, RunnerIgnoresAmbientEnvironment) {
  // RLIM_CACHE_DIR is a front-end contract (the CLI resolves it into
  // RunnerOptions::cache_dir); the library Runner itself must stay
  // hermetic so tests and benchmarks cannot be skewed — or a user's real
  // store polluted — by an ambient shell variable.
  const auto untouched = test::scratch_dir() / "must_never_be_touched";
  ::setenv("RLIM_CACHE_DIR", untouched.c_str(), 1);
  Runner plain({.jobs = 1});
  ::unsetenv("RLIM_CACHE_DIR");
  EXPECT_EQ(plain.cache().disk_store(), nullptr);
  EXPECT_FALSE(std::filesystem::exists(untouched));
}

TEST(FlowDiskStore, UnusableCacheDirThrowsAtConstruction) {
  EXPECT_THROW(Runner({.cache_dir = "/proc/definitely/not/writable"}), Error);
}

// ---- determinism -----------------------------------------------------------

TEST(FlowRunner, ReportsAreByteIdenticalForAnyWorkerCount) {
  const auto& specs = bench::mini_suite();
  std::vector<SourcePtr> serial_sources;
  std::vector<SourcePtr> parallel_sources;
  for (std::size_t i = 0; i < 4; ++i) {
    serial_sources.push_back(Source::benchmark(specs[i]));
    parallel_sources.push_back(Source::benchmark(specs[i]));
  }
  Runner serial({.jobs = 1});
  Runner parallel({.jobs = 8});
  const auto serial_results = serial.run(strategy_sweep(serial_sources));
  const auto parallel_results = parallel.run(strategy_sweep(parallel_sources));
  throw_on_error(serial_results);
  throw_on_error(parallel_results);

  for (const auto format :
       {ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json}) {
    EXPECT_EQ(render(serial_results, format), render(parallel_results, format))
        << to_string(format);
  }
}

TEST(FlowRunner, ResultsArriveInJobOrder) {
  std::vector<Job> jobs;
  for (const unsigned bits : {2u, 3u, 4u, 5u}) {
    jobs.push_back({Source::graph(bench::make_adder(bits),
                                  "adder" + std::to_string(bits)),
                    core::make_config(core::Strategy::Naive),
                    {}});
  }
  Runner runner({.jobs = 4});
  const auto results = runner.run(jobs);
  throw_on_error(results);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].report.benchmark, jobs[i].display_label());
  }
}

TEST(FlowRunner, ErrorsAreCapturedPerJob) {
  std::vector<Job> jobs = {
      {Source::netlist("/nonexistent/a.mig"),
       core::make_config(core::Strategy::Naive),
       {}},
      {Source::graph(bench::make_adder(4), "ok"),
       core::make_config(core::Strategy::Naive),
       {}},
  };
  Runner runner({.jobs = 2});
  const auto results = runner.run(jobs);
  EXPECT_FALSE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_THROW(throw_on_error(results), Error);
}

TEST(FlowRunner, MatchesRunPipeline) {
  const auto graph = bench::make_adder(6);
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto direct = core::run_pipeline(graph, config, "adder6");
  const auto result =
      run_job({Source::graph(graph, "adder6"), config, {}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.report.instructions, direct.instructions);
  EXPECT_EQ(result.report.rrams, direct.rrams);
  EXPECT_EQ(result.report.writes.stdev, direct.writes.stdev);
}

// ---- report sinks ----------------------------------------------------------

Report sample_report() {
  Report doc;
  doc.title = "sample";
  doc.columns = {"name", "value"};
  doc.add_row({"plain", "1"});
  doc.add_separator();
  doc.add_row({"with,comma", "quote\"inside"});
  doc.add_note("a note");
  return doc;
}

TEST(ReportSinks, TableSinkAlignsAndKeepsSeparators) {
  std::ostringstream os;
  TableSink().write(sample_report(), os);
  const auto text = os.str();
  EXPECT_NE(text.find("sample\n\n"), std::string::npos);
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("plain"), std::string::npos);
  EXPECT_NE(text.find("a note\n"), std::string::npos);
  // header rule + separator + closing rule = at least 4 '+--' lines.
  std::size_t rules = 0;
  for (std::size_t pos = 0; (pos = text.find("+-", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(ReportSinks, CsvSinkQuotesAndComments) {
  std::ostringstream os;
  CsvSink().write(sample_report(), os);
  EXPECT_EQ(os.str(),
            "# sample\n"
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",\"quote\"\"inside\"\n"
            "# a note\n");
}

TEST(ReportSinks, JsonSinkEscapesAndSkipsSeparators) {
  std::ostringstream os;
  JsonSink().write(sample_report(), os);
  EXPECT_EQ(os.str(),
            "{\"title\":\"sample\",\"columns\":[\"name\",\"value\"],"
            "\"rows\":[[\"plain\",\"1\"],"
            "[\"with,comma\",\"quote\\\"inside\"]],"
            "\"notes\":[\"a note\"]}\n");
}

TEST(ReportSinks, FormatParsingRoundTrips) {
  for (const auto format :
       {ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json}) {
    EXPECT_EQ(parse_format(to_string(format)), format);
  }
  EXPECT_THROW(static_cast<void>(parse_format("xml")), Error);
}

// ---- suite selection -------------------------------------------------------

TEST(FlowSuite, SourcesMatchSelection) {
  const auto selection = suite();
  const auto sources = suite_sources(selection);
  ASSERT_EQ(sources.size(), selection.specs->size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(sources[i]->label(), (*selection.specs)[i].name);
  }
}

}  // namespace
}  // namespace rlim::flow
