#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "benchmarks/arithmetic.hpp"
#include "cli.hpp"
#include "mig/io.hpp"
#include "test_helpers.hpp"

namespace rlim::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

// compile/suite resolve RLIM_CACHE_DIR, so an ambient value from the
// developer's shell would attach their real store to every test run (and
// flip the no-directory error cases). Scrub it once at load; the env test
// below sets and clears its own value.
[[maybe_unused]] const bool kCacheDirScrubbed = [] {
  ::unsetenv("RLIM_CACHE_DIR");
  return true;
}();

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

/// Drives a command that reads from stdin (`serve --stdin-jobs`).
CliResult run_cli(std::vector<std::string> args, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, in, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_netlist() {
  const auto path = (test::scratch_dir() / "cli_adder.mig").string();
  mig::write_mig_file(bench::make_adder(4), path);
  return path;
}

TEST(Cli, NoCommandFails) {
  const auto result = run_cli({});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run_cli({"frobnicate"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, InfoPrintsStatistics) {
  const auto result = run_cli({"info", temp_netlist()});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("pis:"), std::string::npos);
  EXPECT_NE(result.out.find("8"), std::string::npos);  // 2x4 PIs
  EXPECT_NE(result.out.find("depth:"), std::string::npos);
}

TEST(Cli, InfoOnBenchGenerator) {
  const auto result = run_cli({"info", "bench:int2float"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("pis:              11"), std::string::npos);
}

TEST(Cli, SuiteListsAllBenchmarks) {
  const auto result = run_cli({"suite"});
  EXPECT_EQ(result.code, 0);
  for (const auto* name : {"adder", "voter", "mem_ctrl", "dec"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, CompileWithVerify) {
  const auto result = run_cli(
      {"compile", temp_netlist(), "--strategy", "full", "--verify"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("instructions:"), std::string::npos);
  EXPECT_NE(result.out.find("verification:    passed"), std::string::npos);
}

TEST(Cli, CompileAllStrategies) {
  for (const auto* strategy :
       {"naive", "plim21", "min-write", "endurance-rewrite", "full"}) {
    const auto result =
        run_cli({"compile", temp_netlist(), "--strategy", strategy, "--verify"});
    EXPECT_EQ(result.code, 0) << strategy << ": " << result.err;
  }
}

TEST(Cli, CompileWithCapHonorsIt) {
  const auto result = run_cli(
      {"compile", "bench:int2float", "--strategy", "full", "--cap", "10"});
  EXPECT_EQ(result.code, 0);
  // "writes min/max:  x/y" with y <= 10.
  const auto pos = result.out.find("writes min/max:");
  ASSERT_NE(pos, std::string::npos);
  const auto slash = result.out.find('/', pos + 16);
  const auto max = std::stoul(result.out.substr(slash + 1));
  EXPECT_LE(max, 10u);
}

TEST(Cli, CompileDisassembles) {
  const auto result = run_cli({"compile", temp_netlist(), "--disasm"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("RM3("), std::string::npos);
}

TEST(Cli, CompileBatchRendersOneRowPerNetlist) {
  const auto result = run_cli({"compile", "bench:ctrl", "bench:router",
                               "--strategy", "full", "--jobs", "2"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("bench:ctrl"), std::string::npos);
  EXPECT_NE(result.out.find("bench:router"), std::string::npos);
  EXPECT_NE(result.out.find("| benchmark"), std::string::npos);
}

TEST(Cli, CompileJobCountDoesNotChangeOutput) {
  const auto serial = run_cli({"compile", "bench:ctrl", "bench:router",
                               "--jobs", "1", "--format", "csv"});
  const auto parallel = run_cli({"compile", "bench:ctrl", "bench:router",
                                 "--jobs", "8", "--format", "csv"});
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(serial.out, parallel.out);
}

TEST(Cli, CompileBatchKeepsGoodResultsOnPartialFailure) {
  const auto result = run_cli(
      {"compile", "bench:ctrl", "/nonexistent/x.mig", "--format", "csv"});
  EXPECT_EQ(result.code, 1);
  // The good netlist's row survives; the bad one reports its error inline.
  EXPECT_NE(result.out.find("bench:ctrl,"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("error: "), std::string::npos) << result.out;
}

TEST(Cli, CompileJsonFormat) {
  const auto result =
      run_cli({"compile", "bench:ctrl", "--format", "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("{\"title\":", 0), 0u) << result.out;
  EXPECT_NE(result.out.find("\"bench:ctrl\""), std::string::npos);
}

TEST(Cli, SuiteCsvFormat) {
  const auto result = run_cli({"suite", "--format", "csv"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("benchmark,PI/PO,class"), std::string::npos);
  EXPECT_NE(result.out.find("adder,256/129,arithmetic"), std::string::npos);
}

TEST(Cli, BadFormatFails) {
  const auto result =
      run_cli({"compile", "bench:ctrl", "--format", "yaml"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown report format"), std::string::npos);
}

TEST(Cli, RewriteRoundTrip) {
  const auto input = temp_netlist();
  const auto output = (test::scratch_dir() / "cli_rewritten.blif").string();
  const auto result = run_cli({"rewrite", input, output, "--flow", "endurance"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("gates:"), std::string::npos);
  // The output file must parse and still be compilable.
  const auto compiled = run_cli({"compile", output, "--verify"});
  EXPECT_EQ(compiled.code, 0) << compiled.err;
}

TEST(Cli, RewriteLevelFlow) {
  const auto input = temp_netlist();
  const auto output = (test::scratch_dir() / "cli_level.mig").string();
  const auto result = run_cli({"rewrite", input, output, "--flow", "level"});
  EXPECT_EQ(result.code, 0) << result.err;
}

TEST(Cli, RewriteSeqFlowMatchesNamedAlias) {
  const auto input = temp_netlist();
  const auto by_alias = (test::scratch_dir() / "cli_seq_alias.mig").string();
  const auto by_list = (test::scratch_dir() / "cli_seq_list.mig").string();
  const auto alias = run_cli({"rewrite", input, by_alias, "--flow", "endurance"});
  const auto listed =
      run_cli({"rewrite", input, by_list, "--flow", "seq", "--passes",
               "maj,dist,inv,inv3,assoc,inv,inv3,maj,dist,inv3"});
  ASSERT_EQ(alias.code, 0) << alias.err;
  ASSERT_EQ(listed.code, 0) << listed.err;
  EXPECT_NE(listed.out.find("passes:"), std::string::npos);
  // Same pass sequence, same graph: the rewritten netlists must be identical.
  std::ifstream a(by_alias), b(by_list);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(Cli, RewriteUntilStopsAfterNamedPass) {
  const auto input = temp_netlist();
  const auto output = (test::scratch_dir() / "cli_until.mig").string();
  const auto result = run_cli({"rewrite", input, output, "--flow", "endurance",
                               "--until", "dist"});
  EXPECT_EQ(result.code, 0) << result.err;
  // Passes after the cut must not appear in the breakdown.
  EXPECT_NE(result.out.find("dist"), std::string::npos);
  EXPECT_EQ(result.out.find("inv3"), std::string::npos) << result.out;
  EXPECT_EQ(run_cli({"rewrite", input, output, "--flow", "endurance",
                     "--until", "bogus"})
                .code,
            1);
}

TEST(Cli, RewriteDumpAfterStreamsToStderr) {
  const auto input = temp_netlist();
  const auto output = (test::scratch_dir() / "cli_dumped.mig").string();
  const auto result = run_cli({"rewrite", input, output, "--flow", "plim21",
                               "--dump-after", "-"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("== cycle 0 step 0: maj =="), std::string::npos);
  EXPECT_NE(result.err.find("# MIG:"), std::string::npos);
}

TEST(Cli, BadStrategyAndFlowFail) {
  const auto output = (test::scratch_dir() / "x.mig").string();
  EXPECT_EQ(run_cli({"compile", temp_netlist(), "--strategy", "bogus"}).code, 1);
  EXPECT_EQ(
      run_cli({"rewrite", temp_netlist(), output, "--flow", "bogus"}).code, 1);
  // seq requires --passes, and --passes only makes sense with seq.
  EXPECT_EQ(run_cli({"rewrite", temp_netlist(), output, "--flow", "seq"}).code,
            1);
  EXPECT_EQ(run_cli({"rewrite", temp_netlist(), output, "--flow", "plim21",
                     "--passes", "maj"})
                .code,
            1);
}

TEST(Cli, MissingValueFails) {
  const auto result = run_cli({"compile", temp_netlist(), "--cap"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("needs a value"), std::string::npos);
}

TEST(Cli, UnknownExtensionFails) {
  const auto result =
      run_cli({"info", (test::scratch_dir() / "whatever.v").string()});
  EXPECT_EQ(result.code, 1);
}

TEST(Cli, UnknownBenchFails) {
  const auto result = run_cli({"info", "bench:nope"});
  EXPECT_EQ(result.code, 1);
}

// ---- policy registry surface ------------------------------------------------

TEST(Cli, PoliciesListsEveryRegistryKind) {
  const auto result = run_cli({"policies"});
  EXPECT_EQ(result.code, 0) << result.err;
  for (const auto* needle :
       {"rewrite", "pass", "select", "alloc", "endurance", "wear_quota",
        "start_gap", "min_write", "quota=8", "interval=16", "presets:", "seq",
        "pass sequences:", "seq aliases:"}) {
    EXPECT_NE(result.out.find(needle), std::string::npos) << needle;
  }
}

TEST(Cli, PoliciesCsvFormat) {
  const auto result = run_cli({"policies", "--format", "csv"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("kind,key,parameters,summary"), std::string::npos);
}

TEST(Cli, ConfigSpecMatchesEquivalentStrategy) {
  // --config with a preset alias (or its canonical expansion) reproduces the
  // --strategy output byte for byte, modulo the title line.
  const auto by_strategy = run_cli({"compile", "bench:ctrl", "--strategy",
                                    "full", "--cap", "10", "--format", "csv"});
  const auto by_alias = run_cli(
      {"compile", "bench:ctrl", "--config", "full,cap=10", "--format", "csv"});
  const auto by_canonical = run_cli(
      {"compile", "bench:ctrl", "--config",
       "rewrite=endurance:effort=5,select=endurance,alloc=min_write,cap=10",
       "--format", "csv"});
  EXPECT_EQ(by_strategy.code, 0) << by_strategy.err;
  EXPECT_EQ(by_alias.code, 0) << by_alias.err;
  // Everything after the `#` title comment must agree.
  const auto body = [](const std::string& text) {
    return text.substr(text.find('\n'));
  };
  EXPECT_EQ(body(by_strategy.out), body(by_alias.out));
  EXPECT_EQ(by_alias.out, by_canonical.out);
}

TEST(Cli, ConfigSpecReachesRegistryOnlyPolicies) {
  const auto result = run_cli(
      {"compile", temp_netlist(), "--config",
       "rewrite=endurance,select=wear_quota:quota=4,alloc=start_gap",
       "--verify"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("config:          rewrite=endurance:effort=5,"
                            "select=wear_quota:quota=4,"
                            "alloc=start_gap:interval=16"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("verification:    passed"), std::string::npos);
}

TEST(Cli, SeqConfigMatchesEnumFlowAndShowsPassBreakdown) {
  // A seq spec spelling out the endurance pass list must reproduce the enum
  // flow's compile table byte for byte (modulo the title line naming the key).
  const auto by_enum = run_cli({"compile", "bench:ctrl", "--config",
                                "rewrite=endurance,cap=10", "--format", "csv"});
  const auto by_seq = run_cli(
      {"compile", "bench:ctrl", "--config",
       "rewrite=seq:passes=maj,dist,inv,inv3,assoc,inv,inv3,maj,dist,inv3,"
       "cap=10",
       "--format", "csv"});
  ASSERT_EQ(by_enum.code, 0) << by_enum.err;
  ASSERT_EQ(by_seq.code, 0) << by_seq.err;
  const auto body = [](const std::string& text) {
    return text.substr(text.find('\n'));
  };
  EXPECT_EQ(body(by_enum.out), body(by_seq.out));

  // Verbose compile surfaces the per-pass attribution of RewriteStats.
  const auto verbose = run_cli(
      {"compile", temp_netlist(), "--config",
       "rewrite=seq:passes=maj,dist,inv,inv3:effort=3", "--verify"});
  ASSERT_EQ(verbose.code, 0) << verbose.err;
  EXPECT_NE(verbose.out.find("rewrite passes ("), std::string::npos)
      << verbose.out;
  EXPECT_NE(verbose.out.find("maj"), std::string::npos);
  EXPECT_NE(verbose.out.find("applications"), std::string::npos);
}

TEST(Cli, BadConfigSpecFails) {
  EXPECT_EQ(run_cli({"compile", "bench:ctrl", "--config", "bogus"}).code, 1);
  EXPECT_EQ(
      run_cli({"compile", "bench:ctrl", "--config", "select=unregistered"})
          .code,
      1);
  EXPECT_EQ(run_cli({"compile", "bench:ctrl", "--config", "full,cap=2"}).code,
            1);
  // --config conflicts with --strategy / --cap.
  EXPECT_EQ(run_cli({"compile", "bench:ctrl", "--config", "full", "--strategy",
                     "naive"})
                .code,
            1);
  EXPECT_EQ(
      run_cli({"compile", "bench:ctrl", "--config", "full", "--cap", "10"})
          .code,
      1);
}

TEST(Cli, SuiteWithConfigCompilesTheWholeSuite) {
  // RLIM_SUITE is read by the flow layer; the unit-test environment runs the
  // paper profile, so just check the sweep renders one row per benchmark.
  const auto result =
      run_cli({"suite", "--config", "naive", "--format", "csv", "--jobs", "4"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("suite ("), std::string::npos);
  EXPECT_NE(result.out.find("config rewrite=none,select=naive,alloc=lifo"),
            std::string::npos);
  for (const auto* name : {"adder", "voter", "mem_ctrl", "dec"}) {
    EXPECT_NE(result.out.find("\n" + std::string(name) + ","),
              std::string::npos)
        << name;
  }
}

TEST(Cli, SuiteWithStrategyKeepsLegacyWording) {
  const auto result =
      run_cli({"suite", "--strategy", "naive", "--format", "csv"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("strategy naive"), std::string::npos);
}

TEST(Cli, NegativeEffortFailsUpFrontNotPerJob) {
  // set_effort bypasses parse()'s eager validation; config_from re-checks so
  // the whole batch fails with one clear message instead of per-job errors.
  const auto result = run_cli({"compile", "bench:ctrl", "bench:router",
                               "--config", "full", "--effort", "-2"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("effort must be non-negative"), std::string::npos)
      << result.err;
}

TEST(Cli, SuiteRejectsSweepFlagsWithoutConfiguration) {
  // Listing mode must not silently drop sweep-only flags.
  const auto result = run_cli({"suite", "--cap", "10"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--strategy or --config"), std::string::npos);
  EXPECT_EQ(run_cli({"suite", "--verify"}).code, 1);
  EXPECT_EQ(run_cli({"suite", "--jobs", "4"}).code, 1);
}

// ---- async serve front-end ----------------------------------------------------

TEST(Cli, ServeStreamsRowsByteIdenticalToCompile) {
  // The acceptance property: the async stdin front-end over flow::Service
  // renders exactly the rows the synchronous compile batch renders — the
  // CSV bodies differ only by compile's `#` title comment.
  const auto compiled = run_cli({"compile", "bench:ctrl", "bench:router",
                                 "--strategy", "full", "--format", "csv"});
  ASSERT_EQ(compiled.code, 0) << compiled.err;
  const auto served = run_cli({"serve", "--stdin-jobs"},
                              "bench:ctrl\nbench:router\n");
  EXPECT_EQ(served.code, 0) << served.err;
  EXPECT_EQ(served.out, compiled.out.substr(compiled.out.find('\n') + 1));
  EXPECT_NE(served.err.find("rlim: serve: 2 jobs"), std::string::npos)
      << served.err;
}

TEST(Cli, ServeOutputIsByteIdenticalForAnyWorkerCount) {
  const std::string lines =
      "bench:ctrl\n"
      "bench:router naive\n"
      "bench:int2float full,cap=50\n"
      "bench:ctrl\n";
  const auto serial = run_cli({"serve", "--stdin-jobs", "--jobs", "1"}, lines);
  const auto parallel =
      run_cli({"serve", "--stdin-jobs", "--jobs", "8"}, lines);
  EXPECT_EQ(serial.code, 0) << serial.err;
  EXPECT_EQ(parallel.code, 0) << parallel.err;
  EXPECT_EQ(serial.out, parallel.out);
}

TEST(Cli, ServeHandlesPerLineConfigsCommentsAndErrors) {
  const auto result = run_cli(
      {"serve", "--stdin-jobs"},
      "# a comment line\n"
      "\n"
      "bench:ctrl rewrite=endurance,select=wear_quota:quota=4,alloc=start_gap\n"
      "bad.v\n"
      "bench:router select=unregistered\n");
  EXPECT_EQ(result.code, 1) << "failed lines must flip the exit code";
  // The good row renders, each bad line holds its position as an error row.
  EXPECT_NE(result.out.find("bench:ctrl,"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("bad.v,\"error: "), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("bench:router,\"error: "), std::string::npos)
      << result.out;
  EXPECT_NE(result.err.find("2 failed"), std::string::npos) << result.err;
}

TEST(Cli, ServeRequiresStdinJobs) {
  const auto result = run_cli({"serve"}, "bench:ctrl\n");
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--stdin-jobs"), std::string::npos) << result.err;
  EXPECT_EQ(run_cli({"serve", "--stdin-jobs", "bench:ctrl"}, "").code, 1)
      << "positional arguments are rejected";
  EXPECT_EQ(
      run_cli({"serve", "--stdin-jobs", "--format", "json"}, "").code, 1)
      << "json cannot stream";
  EXPECT_EQ(
      run_cli({"serve", "--stdin-jobs", "--format", "table"}, "").code, 1)
      << "an explicit non-csv format is rejected, not silently ignored";
  EXPECT_EQ(run_cli({"serve", "--stdin-jobs", "--format", "csv"}, "").code, 0);
}

TEST(Cli, ServeUsesPersistentStore) {
  const auto dir = test::scratch_dir() / "cli_cache_serve";
  const std::vector<std::string> args = {"serve", "--stdin-jobs",
                                         "--cache-dir", dir.string()};
  const auto cold = run_cli(args, "bench:ctrl\n");
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("program loads 0"), std::string::npos) << cold.err;
  const auto warm = run_cli(args, "bench:ctrl\n");
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(warm.out, cold.out) << "stdout must stay byte-identical";
  EXPECT_NE(warm.err.find("program loads 1"), std::string::npos) << warm.err;
}

// ---- persistent store surface -----------------------------------------------

std::string fresh_cache_dir(const std::string& name) {
  const auto dir = test::scratch_dir() / ("cli_cache_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Cli, VersionReportsProjectAndStoreFormat) {
  for (const auto* spelling : {"version", "--version"}) {
    const auto result = run_cli({spelling});
    EXPECT_EQ(result.code, 0) << spelling;
    EXPECT_EQ(result.out.rfind("rlim ", 0), 0u) << result.out;
    EXPECT_NE(result.out.find("store format"), std::string::npos)
        << result.out;
  }
}

TEST(Cli, CacheDirMakesRerunsByteIdenticalWithDiskHits) {
  const auto dir = fresh_cache_dir("rerun");
  const std::vector<std::string> args = {
      "compile", "bench:ctrl",     "--strategy",  "full",
      "--format", "csv",           "--cache-dir", dir};
  const auto cold = run_cli(args);
  EXPECT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.err.find("program loads 0"), std::string::npos) << cold.err;

  const auto warm = run_cli(args);
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(warm.out, cold.out) << "stdout must stay byte-identical";
  EXPECT_NE(warm.err.find("program loads 1"), std::string::npos) << warm.err;
  EXPECT_NE(warm.err.find("stores 0"), std::string::npos) << warm.err;
}

TEST(Cli, EnvCacheDirIsHonoredAndFlagWins) {
  const auto env_dir = fresh_cache_dir("env");
  const auto flag_dir = fresh_cache_dir("env_flag");
  ::setenv("RLIM_CACHE_DIR", env_dir.c_str(), 1);
  // Without --cache-dir, the environment's store is used...
  const auto via_env =
      run_cli({"compile", "bench:ctrl", "--strategy", "naive"});
  // ...and --cache-dir overrides it.
  const auto via_flag = run_cli({"compile", "bench:ctrl", "--strategy",
                                 "naive", "--cache-dir", flag_dir});
  ::unsetenv("RLIM_CACHE_DIR");
  EXPECT_EQ(via_env.code, 0) << via_env.err;
  EXPECT_NE(via_env.err.find("rlim: cache " + env_dir), std::string::npos)
      << via_env.err;
  EXPECT_NE(via_flag.err.find("rlim: cache " + flag_dir), std::string::npos)
      << via_flag.err;
}

TEST(Cli, CacheStatsReflectsEntries) {
  const auto dir = fresh_cache_dir("stats");
  ASSERT_EQ(run_cli({"compile", "bench:ctrl", "--strategy", "full",
                     "--cache-dir", dir})
                .code,
            0);
  const auto result = run_cli({"cache", "stats", "--cache-dir", dir});
  EXPECT_EQ(result.code, 0) << result.err;
  // One program entry + one endurance rewrite entry for a single job.
  EXPECT_NE(result.out.find("program entries"), std::string::npos);
  EXPECT_NE(result.out.find("rewrite entries"), std::string::npos);
  EXPECT_NE(result.out.find("| entries"), std::string::npos);
}

TEST(Cli, CacheClearEmptiesTheStore) {
  const auto dir = fresh_cache_dir("clear");
  ASSERT_EQ(run_cli({"compile", "bench:ctrl", "--strategy", "full",
                     "--cache-dir", dir})
                .code,
            0);
  EXPECT_EQ(run_cli({"cache", "clear", "--cache-dir", dir}).code, 0);
  const auto stats = run_cli({"cache", "stats", "--cache-dir", dir,
                              "--format", "csv"});
  EXPECT_NE(stats.out.find("entries,0"), std::string::npos) << stats.out;
}

TEST(Cli, CacheGcNeedsACap) {
  const auto dir = fresh_cache_dir("gc_flags");
  ASSERT_EQ(run_cli({"compile", "bench:ctrl", "--strategy", "naive",
                     "--cache-dir", dir})
                .code,
            0);
  const auto result = run_cli({"cache", "gc", "--cache-dir", dir});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--max-bytes"), std::string::npos);
  EXPECT_EQ(run_cli({"cache", "gc", "--cache-dir", dir, "--max-bytes", "0"})
                .code,
            0);
}

TEST(Cli, CacheVerifySignalsRepairedStores) {
  const auto dir = fresh_cache_dir("verify");
  ASSERT_EQ(run_cli({"compile", "bench:ctrl", "--strategy", "full",
                     "--cache-dir", dir})
                .code,
            0);
  EXPECT_EQ(run_cli({"cache", "verify", "--cache-dir", dir}).code, 0);
  // Damage one entry; verify evicts it and exits 2.
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::filesystem::path(dir) / "objects")) {
    if (entry.is_regular_file()) {
      std::filesystem::resize_file(entry.path(), 3);
      break;
    }
  }
  const auto repaired = run_cli({"cache", "verify", "--cache-dir", dir});
  EXPECT_EQ(repaired.code, 2) << repaired.out;
  // A truncated file fails map validation (it is not even a framed entry),
  // which verify reports separately from content-hash mismatches.
  EXPECT_NE(repaired.out.find("evicted map-validation"), std::string::npos)
      << repaired.out;
  EXPECT_NE(repaired.out.find("evicted hash-mismatch"), std::string::npos)
      << repaired.out;
}

TEST(Cli, CacheRejectsBadUsage) {
  EXPECT_EQ(run_cli({"cache"}).code, 1);
  const auto existing = fresh_cache_dir("bad_sub");
  std::filesystem::create_directories(existing);
  const auto unknown =
      run_cli({"cache", "frobnicate", "--cache-dir", existing});
  EXPECT_EQ(unknown.code, 1);
  EXPECT_NE(unknown.err.find("unknown cache subcommand"), std::string::npos);
  // No --cache-dir and no RLIM_CACHE_DIR: the command has nothing to act on.
  // (The test environment never sets RLIM_CACHE_DIR; the build would not be
  // hermetic otherwise.)
  const auto result = run_cli({"cache", "stats"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("RLIM_CACHE_DIR"), std::string::npos);
  // A directory that does not exist is an error, not an empty store.
  const auto missing = run_cli(
      {"cache", "stats", "--cache-dir", "/nonexistent/rlim_store"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("does not exist"), std::string::npos);
}

}  // namespace
}  // namespace rlim::cli
