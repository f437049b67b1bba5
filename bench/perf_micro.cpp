// google-benchmark microbenchmarks: throughput of the three pipeline stages
// (MIG rewriting, RM3 compilation, crossbar execution) plus the simulation
// substrate. Sizes are kept small so the whole binary finishes in seconds.

#include <benchmark/benchmark.h>

#include <filesystem>

#include "benchmarks/arithmetic.hpp"
#include "core/endurance.hpp"
#include "fault/array.hpp"
#include "fault/fault.hpp"
#include "flow/runner.hpp"
#include "flow/suite.hpp"
#include "mig/simulate.hpp"
#include "pass/seq.hpp"
#include "plim/compiler.hpp"
#include "plim/controller.hpp"
#include "store/disk_store.hpp"
#include "store/serialize.hpp"
#include "util/codec.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"

namespace {

using namespace rlim;

const mig::Mig& adder_graph(unsigned bits) {
  static std::map<unsigned, mig::Mig> cache;
  auto it = cache.find(bits);
  if (it == cache.end()) {
    it = cache.emplace(bits, bench::make_adder(bits)).first;
  }
  return it->second;
}

void BM_RewritePlim21(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  const auto rewrite = pass::make_rewrite({"plim21", {{"effort", "2"}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rewrite(graph, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_RewritePlim21)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_RewriteEndurance(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  const auto rewrite = pass::make_rewrite({"endurance", {{"effort", "2"}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rewrite(graph, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_RewriteEndurance)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Compile(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  const plim::PlimCompiler compiler({{"endurance", {}}, {"min_write", {}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(graph));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_Compile)->Arg(16)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_CompileNaive(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  const plim::PlimCompiler compiler({{"naive", {}}, {"lifo", {}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(graph));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_CompileNaive)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_CrossbarExecute(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  const auto compiled =
      plim::PlimCompiler(plim::CompilerOptions{}).compile(graph);
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> pi_values(graph.num_pis());
  for (auto& word : pi_values) {
    word = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(plim::evaluate(compiled.program, pi_values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(compiled.num_instructions()));
}
BENCHMARK(BM_CrossbarExecute)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

// The fault-model kernel behind the same public evaluate: one execution per
// iteration on one long-lived FaultArray (unlimited endurance, so the array
// reaches a steady state instead of wearing out mid-run). Arg 0 = stuck-at
// cells, 1 = per-read drift.
void BM_CrossbarExecuteFault(benchmark::State& state) {
  const auto& graph = adder_graph(64);
  const auto compiled =
      plim::PlimCompiler(plim::CompilerOptions{}).compile(graph);
  const bool drift = state.range(0) == 1;
  const auto sweep = fault::make_sweep(util::PolicySpec{
      drift ? "drift" : "stuck", {{"rate", "0.001"}, {"endurance", "0"}}});
  fault::FaultArray array(compiled.program.num_cells(), sweep.profile, 1);
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> pi_values(graph.num_pis());
  for (auto& word : pi_values) {
    word = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(plim::evaluate(compiled.program, pi_values, &array));
  }
  state.SetLabel(drift ? "drift" : "stuck");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(compiled.num_instructions()));
}
BENCHMARK(BM_CrossbarExecuteFault)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MigSimulate(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  util::Xoshiro256 rng(2);
  std::vector<std::uint64_t> pi_values(graph.num_pis());
  for (auto& word : pi_values) {
    word = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mig::simulate(graph, pi_values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_MigSimulate)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const auto& graph = adder_graph(32);
  const auto config = core::make_config(core::Strategy::FullEndurance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_pipeline(graph, config, "adder32"));
  }
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

// Cost of the Monte-Carlo fault engine itself: K seeded trials over a
// precompiled program, each replaying random inputs on a fresh FaultArray
// until the first wrong output (the work a `fault=` config adds per job).
void BM_FaultSweep(benchmark::State& state) {
  const auto graph = adder_graph(16).cleanup();
  const auto config = core::make_config(core::Strategy::FullEndurance);
  const auto report = core::run_pipeline(graph, config, "adder16");
  const auto sweep = fault::make_sweep(util::PolicySpec{
      "stuck",
      {{"rate", "0.001"}, {"endurance", "400"}, {"sigma", "0.3"},
       {"trials", std::to_string(state.range(0))}, {"runs", "300"}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::run_sweep(report.program, graph, sweep));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FaultSweep)->Arg(3)->Arg(9)->Unit(benchmark::kMillisecond);

void BM_MigFingerprint(benchmark::State& state) {
  const auto& graph = adder_graph(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.fingerprint());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_MigFingerprint)->Unit(benchmark::kMicrosecond);

// The shared workload of every BM_FlowBatch* benchmark below: 3 adders ×
// the 5 paper strategies. One definition so the cold / warm-memory /
// cold-disk / warm-disk numbers stay comparable.
std::vector<flow::Job> adder_strategy_jobs() {
  std::vector<flow::SourcePtr> sources;
  for (const unsigned bits : {16u, 24u, 32u}) {
    sources.push_back(flow::Source::graph(
        bench::make_adder(bits), "adder" + std::to_string(bits)));
  }
  std::vector<flow::Job> jobs;
  for (const auto& source : sources) {
    for (const auto strategy : flow::paper_strategies()) {
      jobs.push_back({source, core::make_config(strategy), {}});
    }
  }
  return jobs;
}

// Batch throughput of the flow job-runner with a cold rewrite cache per
// iteration. The thread-count argument shows the --jobs scaling of the
// sweep drivers.
void BM_FlowBatch(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  for (auto _ : state) {
    flow::Runner runner({.jobs = static_cast<unsigned>(state.range(0))});
    benchmark::DoNotOptimize(runner.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The same batch against a persistent Runner whose program cache is already
// warm: every job is a (fingerprint, canonical config key) hit, so the
// pipeline work collapses to cache lookups + report copies. The gap to
// BM_FlowBatch/1 is the compile-cache win for repeated sweeps.
void BM_FlowBatchWarmProgramCache(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  flow::Runner runner({.jobs = 1});
  benchmark::DoNotOptimize(runner.run(jobs));  // cold fill
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchWarmProgramCache)->Unit(benchmark::kMillisecond);

std::string perf_store_dir() {
  return (std::filesystem::temp_directory_path() / "rlim_perf_store")
      .string();
}

// Cold disk store: every iteration starts from an empty store, so the
// pipeline work runs in full *plus* the write-through serialization. The
// delta to BM_FlowBatch/1 is the price of persisting a sweep.
void BM_FlowBatchColdDiskStore(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  const auto dir = perf_store_dir();
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    flow::Runner runner({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(runner.run(jobs));
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchColdDiskStore)->Unit(benchmark::kMillisecond);

// Warm disk store, cold process: a fresh Runner per iteration (its
// in-memory cache empty, as a new invocation would be) against a
// pre-populated store — every job is a program-level disk hit. Compare
// with BM_FlowBatch/1 (no cache at all, cold) and
// BM_FlowBatchWarmProgramCache (in-memory hit, the upper bound).
void BM_FlowBatchWarmDiskStore(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  const auto dir = perf_store_dir();
  std::filesystem::remove_all(dir);
  {
    flow::Runner seeder({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(seeder.run(jobs));
  }
  for (auto _ : state) {
    flow::Runner runner({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(runner.run(jobs));
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchWarmDiskStore)->Unit(benchmark::kMillisecond);

// Decode throughput of the store's bulk MIG payload: bytes → validated
// arena graph (adopt_raw), the dominant work of a disk hit after the frame
// is mapped. Items = gates decoded.
void BM_StoreDeserializeMig(benchmark::State& state) {
  const auto& graph = adder_graph(static_cast<unsigned>(state.range(0)));
  util::ByteWriter out;
  store::encode(out, graph);
  const auto bytes = out.take();
  for (auto _ : state) {
    util::ByteReader in(bytes);
    benchmark::DoNotOptimize(store::decode_mig(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_StoreDeserializeMig)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

// Map + authenticate one on-disk entry: mmap (or fallback read), magic /
// version / whole-frame FNV check, zero-copy key+payload views. This is the
// fixed per-entry cost a disk hit pays before any decoding.
void BM_StoreMapValidate(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() / "rlim_perf_entry";
  std::filesystem::remove_all(dir);
  const auto& graph = adder_graph(64);
  store::IoScratch scratch;
  {
    store::DiskStore disk(dir.string());
    disk.store_rewrite(graph.fingerprint(), "bench-key", graph,
                       mig::RewriteStats{}, &scratch);
  }
  const auto name =
      store::entry_file_name(store::EntryKind::Rewrite, graph.fingerprint(),
                             "bench-key");
  const auto path = store::objects_dir(dir) / name.substr(0, 2) / name;
  std::uint64_t frame_bytes = 0;
  for (auto _ : state) {
    util::MmapFile file;
    store::EntryView view;
    const auto status = store::read_entry_view(path, file, view,
                                               &scratch.read_buffer);
    if (status != store::EntryStatus::Ok) {
      state.SkipWithError("entry failed validation");
      break;
    }
    frame_bytes = file.bytes().size();
    benchmark::DoNotOptimize(view.payload.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame_bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreMapValidate)->Unit(benchmark::kMicrosecond);

// Cost of the config front-end itself: spec parse (registry validation
// included) + canonical key rendering — the per-job key path of the cache.
void BM_ConfigParseCanonicalKey(benchmark::State& state) {
  for (auto _ : state) {
    const auto config = core::PipelineConfig::parse(
        "rewrite=endurance:effort=5,select=wear_quota:quota=4,"
        "alloc=start_gap:interval=8,cap=100");
    benchmark::DoNotOptimize(config.canonical_key());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConfigParseCanonicalKey)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
