// google-benchmark microbenchmarks: throughput of the three pipeline stages
// (MIG rewriting, RM3 compilation, crossbar execution) plus the simulation
// substrate. Sizes are kept small so the whole binary finishes in seconds.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>

#include "benchmarks/arithmetic.hpp"
#include "benchmarks/suite.hpp"
#include "core/config.hpp"
#include "core/endurance.hpp"
#include "fault/array.hpp"
#include "fault/fault.hpp"
#include "flow/service.hpp"
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

// Compile alone on wide, high-fanout graphs (adders have almost no fanout):
// paper-suite graphs, each rewritten once by the config's flow outside the
// timed loop. Arg 0 indexes kWideGraphs, arg 1 kCompileConfigs — the five
// paper presets, then the full flow under the wear_quota selector.
constexpr const char* kWideGraphs[] = {"div", "multiplier", "mem_ctrl"};
constexpr const char* kCompileConfigs[] = {
    "naive", "plim21", "min-write", "endurance-rewrite", "full",
    "full,select=wear_quota"};

const mig::Mig& rewritten_paper_graph(const std::string& name,
                                      const core::PipelineConfig& config) {
  static std::map<std::string, mig::Mig> cache;
  const auto key = name + '|' + config.canonical_key();
  auto it = cache.find(key);
  if (it == cache.end()) {
    const auto rewrite = pass::make_rewrite(config.rewrite);
    it = cache.emplace(key, rewrite(bench::find_benchmark(name).build(), nullptr))
             .first;
  }
  return it->second;
}

void BM_CompilePaper(benchmark::State& state) {
  const std::string name = kWideGraphs[state.range(0)];
  const std::string spec = kCompileConfigs[state.range(1)];
  const auto config = core::PipelineConfig::parse(spec);
  const auto& graph = rewritten_paper_graph(name, config);
  const plim::PlimCompiler compiler(
      {config.selection, config.allocation, config.max_writes});
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.compile(graph));
  }
  state.SetLabel(name + ' ' + spec);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          graph.num_gates());
}
BENCHMARK(BM_CompilePaper)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 3, 4, 5}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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

// Batch throughput of flow::Service::run with a cold rewrite cache per
// iteration. The thread-count argument shows the --jobs scaling of the
// sweep drivers. Every BM_FlowBatch* runs on real time: the work happens on
// the service's workers, not on the timing thread.
void BM_FlowBatch(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  for (auto _ : state) {
    flow::Service service({.jobs = static_cast<unsigned>(state.range(0))});
    benchmark::DoNotOptimize(service.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same batch against a persistent Service whose program cache is already
// warm: every job is a (fingerprint, canonical config key) hit, so the
// pipeline work collapses to cache lookups + report copies. The gap to
// BM_FlowBatch/1 is the compile-cache win for repeated sweeps.
void BM_FlowBatchWarmProgramCache(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  flow::Service service({.jobs = 1});
  benchmark::DoNotOptimize(service.run(jobs));  // cold fill
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.run(jobs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchWarmProgramCache)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Private scratch directory of this process: concurrent perf_micro runs
/// (and unrelated directories of a similar name) are never clobbered by the
/// remove_all calls below.
std::filesystem::path perf_scratch_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("rlim_perf_" + name + "_" + std::to_string(::getpid()));
}

std::string perf_store_dir() { return perf_scratch_dir("store").string(); }

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
    flow::Service service({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(service.run(jobs));
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchColdDiskStore)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Warm disk store, cold process: a fresh Service per iteration (its
// in-memory cache empty, as a new invocation would be) against a
// pre-populated store — every job is a program-level disk hit. Compare
// with BM_FlowBatch/1 (no cache at all, cold) and
// BM_FlowBatchWarmProgramCache (in-memory hit, the upper bound).
void BM_FlowBatchWarmDiskStore(benchmark::State& state) {
  const auto jobs = adder_strategy_jobs();
  const auto dir = perf_store_dir();
  std::filesystem::remove_all(dir);
  {
    flow::Service seeder({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(seeder.run(jobs));
  }
  for (auto _ : state) {
    flow::Service service({.jobs = 1, .cache_dir = dir});
    benchmark::DoNotOptimize(service.run(jobs));
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs.size()));
}
BENCHMARK(BM_FlowBatchWarmDiskStore)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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
  const auto dir = perf_scratch_dir("entry");
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
