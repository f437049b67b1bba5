// paper_cold: regenerates the paper's tables from cold caches. Each round
// compiles the 18 paper-suite graphs under the five presets in a seeded
// shuffled order, on a fresh flow::Service whose in-memory cache starts empty
// and whose disk store is a new directory, so every compiled entry is written
// through to disk. MIG rewriting and PLiM compilation dominate the round.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "bench.hpp"
#include "benchmarks/suite.hpp"
#include "core/config.hpp"
#include "flow/service.hpp"
#include "mig/simulate.hpp"
#include "plim/controller.hpp"
#include "store/disk_store.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using rlim::core::PipelineConfig;
using rlim::flow::JobResult;

constexpr unsigned kStreams = 2;
constexpr unsigned kWorkers = 2;
constexpr unsigned kTraceRounds = 2;  // one pair (see run_round)
/// The direct-call split replays a round this many times; layer times are
/// per-job means over all of them.
constexpr unsigned kReplayRounds = 3;

struct Setup {
  std::vector<rlim::flow::SourcePtr> sources;  ///< paper_suite() order
  std::vector<PipelineConfig> configs;         ///< kPresets order
};

std::unique_ptr<Setup> make_setup(Tracer* tracer) {
  auto setup = std::make_unique<Setup>();
  for (const auto& spec : rlim::bench::paper_suite()) {
    Scope scope(tracer, "benchmarks.build", 0);
    auto source = rlim::flow::Source::graph(spec.build(), spec.name);
    (void)source->fingerprint();
    setup->sources.push_back(std::move(source));
  }
  for (const auto* preset : kPresets) {
    setup->configs.push_back(PipelineConfig::parse(preset));
  }
  return setup;
}

std::size_t key_count(const Setup& setup) {
  return setup.sources.size() * setup.configs.size();
}

/// Counters one round leaves behind.
struct RoundStats {
  std::size_t rewrite_hits = 0;
  std::size_t rewrite_misses = 0;
  std::size_t program_hits = 0;
  std::size_t program_misses = 0;
  std::size_t coalesced = 0;
  std::size_t submitted = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t store_bytes = 0;

  void add(const RoundStats& other) {
    rewrite_hits += other.rewrite_hits;
    rewrite_misses += other.rewrite_misses;
    program_hits += other.program_hits;
    program_misses += other.program_misses;
    coalesced += other.coalesced;
    submitted += other.submitted;
    steals += other.steals;
    parks += other.parks;
    store_bytes += other.store_bytes;
  }
};

std::uint64_t directory_bytes(const std::filesystem::path& root) {
  std::uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// One cold round: fresh Service + empty disk store, every (graph, preset)
/// once in a seeded order, `kStreams` closed-loop clients. `results` is
/// indexed by key (graph * presets + preset).
///
/// Presets share rewrites in pairs (plim21 with min-write, endurance-rewrite
/// with full), and whichever of a pair runs first in a round pays for the
/// rewrite. An odd round runs the reverse of the round before it, so over
/// each pair of rounds every job pays exactly once and the latency
/// distribution does not depend on which shuffle the seed drew.
std::vector<Sample> run_round(const Setup& setup, const Options& options,
                              std::uint64_t round, Tracer* tracer,
                              std::vector<JobResult>& results,
                              RoundStats& stats) {
  const auto keys = key_count(setup);
  std::vector<std::size_t> order(keys);
  for (std::size_t i = 0; i < keys; ++i) {
    order[i] = i;
  }
  rlim::util::Xoshiro256 rng(rlim::util::mix_seed(options.seed, round / 2));
  for (std::size_t i = keys; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  if (round % 2 == 1) {
    std::reverse(order.begin(), order.end());
  }

  TempDir store_dir(options.out_dir / "tmp",
                    "paper_cold-" + std::to_string(options.seed) + "-" +
                        std::to_string(round));
  rlim::flow::ServiceOptions service_options;
  service_options.jobs = kWorkers;
  service_options.cache_dir = store_dir.path().string();
  rlim::flow::Service service(service_options);

  results.assign(keys, JobResult{});
  const auto presets = setup.configs.size();
  auto samples = closed_loop(
      kStreams, fixed_count(keys),
      [&](unsigned stream, std::uint64_t index, std::int64_t&) {
        const auto key = order[index];
        Scope scope(tracer, "flow.service.job", round * keys + index + 1, 0,
                    stream + 1);
        rlim::flow::Job job;
        job.source = setup.sources[key / presets];
        job.config = setup.configs[key % presets];
        auto result = service.wait(service.submit(std::move(job)));
        const bool ok = result.ok();
        results[key] = std::move(result);
        return ok;
      });
  service.shutdown();

  const auto& cache = service.cache();
  stats.rewrite_hits = cache.hits();
  stats.rewrite_misses = cache.misses();
  stats.program_hits = cache.program_hits();
  stats.program_misses = cache.program_misses();
  stats.coalesced = service.stats().coalesced;
  stats.submitted = service.stats().submitted;
  stats.steals = service.scheduler_stats().stolen;
  stats.parks = service.scheduler_stats().parks;
  stats.store_bytes = directory_bytes(store_dir.path());
  return samples;
}

/// What the gate keeps of a window: the first full result per key and the
/// digest of every later one.
struct Collected {
  std::vector<JobResult> first;
  std::vector<std::vector<std::uint64_t>> digests;  ///< per key, later rounds
  std::uint64_t errors = 0;

  void add_round(std::vector<JobResult>& round) {
    if (first.empty()) {
      digests.resize(round.size());
      for (auto& result : round) {
        errors += result.ok() ? 0 : 1;
      }
      first = std::move(round);
      return;
    }
    for (std::size_t key = 0; key < round.size(); ++key) {
      if (!round[key].ok()) {
        ++errors;
        digests[key].push_back(0);
      } else {
        digests[key].push_back(report_digest(round[key].report));
      }
    }
  }
};

struct Pass {
  std::vector<Sample> samples;
  RoundStats stats;
  std::uint64_t rounds = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cells = 0;
  std::uint64_t gates_out = 0;
  std::uint64_t pass_runs = 0;
  std::uint64_t pass_applications = 0;
  std::vector<Mark> marks;  ///< one per round boundary
  double cpu_s = 0.0;
};

/// Runs whole rounds while `more(rounds, jobs)` says so.
Pass run_pass(const Setup& setup, const Options& options, Tracer* tracer,
              const std::function<bool(std::uint64_t, std::uint64_t)>& more,
              Collected& collected) {
  Pass pass;
  pass.marks.push_back(mark_now());
  std::vector<JobResult> results;
  while (more(pass.rounds, pass.samples.size())) {
    RoundStats stats;
    auto samples =
        run_round(setup, options, pass.rounds, tracer, results, stats);
    pass.samples.insert(pass.samples.end(), samples.begin(), samples.end());
    pass.stats.add(stats);
    // Rewrite telemetry is recorded once per cache entry; count each
    // distinct (graph, rewrite flow) entry of the round once.
    std::set<std::pair<const rlim::mig::Mig*, std::string>> seen;
    for (std::size_t key = 0; key < results.size(); ++key) {
      const auto& result = results[key];
      if (!result.ok()) {
        continue;
      }
      pass.instructions += result.report.instructions;
      pass.cells += result.report.rrams;
      const auto& config = setup.configs[key % setup.configs.size()];
      if (config.rewrite.key == "none" ||
          !seen.emplace(result.prepared.get(), config.rewrite.key).second) {
        continue;
      }
      pass.gates_out += result.rewrite_stats.final_gates;
      for (const auto& step : result.rewrite_stats.per_pass) {
        pass.pass_runs += step.runs;
        pass.pass_applications += step.applications;
      }
    }
    collected.add_round(results);
    ++pass.rounds;
    pass.marks.push_back(mark_now());
  }
  pass.cpu_s = pass.marks.back().cpu_s - pass.marks.front().cpu_s;
  return pass;
}

/// The correctness gate: every distinct program matches its rewritten MIG,
/// every rewritten MIG matches its source graph, and every later round
/// reproduced the first round's result exactly. Returns failed jobs.
std::uint64_t gate(const Setup& setup, const Options& options,
                   Collected& collected, WorkloadResult& out) {
  if (options.corrupt_result && !collected.first.empty()) {
    auto& program = collected.first.front().report.program;
    auto raw = program.instructions();
    std::vector<rlim::plim::Instruction> damaged(raw.begin(), raw.end());
    damaged.back().a = rlim::plim::Operand::constant(
        !(damaged.back().a.is_constant() && damaged.back().a.constant_value()));
    rlim::plim::Program::RawProgram replacement{
        std::move(damaged),
        {program.pi_cells().begin(), program.pi_cells().end()},
        {program.po_cells().begin(), program.po_cells().end()},
        program.num_cells()};
    program = rlim::plim::Program::adopt_raw(std::move(replacement));
  }
  std::uint64_t failed = collected.errors;
  const auto presets = setup.configs.size();
  Digest hw;
  for (std::size_t key = 0; key < collected.first.size(); ++key) {
    const auto& result = collected.first[key];
    if (!result.ok()) {
      continue;  // already counted as an error result
    }
    const auto& original = setup.sources[key / presets]->original();
    const bool program_ok = rlim::plim::program_matches_mig(
        result.report.program, *result.prepared, 4, options.seed);
    const bool rewrite_ok = rlim::mig::equivalent_random(
        original, *result.prepared, 4, options.seed);
    const auto expected = report_digest(result.report);
    std::uint64_t bad_rounds = 0;
    for (const auto digest : collected.digests[key]) {
      bad_rounds += digest != 0 && digest != expected ? 1 : 0;
    }
    if (!program_ok || !rewrite_ok) {
      ++out.mismatches;
      ++failed;
      std::cerr << "perfbench: paper_cold: " << setup.sources[key / presets]->label()
                << " / " << kPresets[key % presets]
                << (program_ok ? ": rewritten MIG differs from the source\n"
                               : ": program differs from its MIG\n");
    }
    if (bad_rounds != 0) {
      out.mismatches += bad_rounds;
      failed += bad_rounds;
      std::cerr << "perfbench: paper_cold: " << bad_rounds
                << " rounds did not reproduce "
                << setup.sources[key / presets]->label() << " / "
                << kPresets[key % presets] << "\n";
    }
    hw.add(setup.sources[key / presets]->label()).add(kPresets[key % presets]);
    add_hw_stats(hw, result.report);
  }
  out.hw_digest = hw.hex();
  out.digest_entries = collected.first.size();
  return failed;
}

/// Traced split of one cold round: calls the layers the Service composes
/// directly, on the same inputs, in key order.
void replay_round(const Setup& setup, const Options& options,
                  const std::vector<JobResult>& first, std::uint64_t round,
                  Tracer& tracer) {
  TempDir store_dir(options.out_dir / "tmp",
                    "paper_cold-replay-" + std::to_string(options.seed) + "-" +
                        std::to_string(round));
  rlim::store::DiskStore store(store_dir.path());
  const auto presets = setup.configs.size();
  std::map<std::pair<std::size_t, std::string>,
           std::shared_ptr<const rlim::mig::Mig>>
      rewritten;
  for (std::size_t key = 0; key < first.size(); ++key) {
    const auto graph_index = key / presets;
    const auto& config = setup.configs[key % presets];
    const auto& source = *setup.sources[graph_index];
    const auto& original = source.original();
    Scope root(&tracer, "replay", key + 1);
    std::string canonical;
    timed_span(&tracer, "core.canonical_key", key + 1, root.id(),
               [&] { canonical = config.canonical_key(); });
    std::shared_ptr<const rlim::mig::Mig> prepared;
    bool computed = false;
    if (config.rewrite.key == "none") {
      prepared = source.original_ptr();
    } else {
      const auto rewrite_key = config.rewrite.canonical();
      auto& slot = rewritten[{graph_index, rewrite_key}];
      if (!slot) {
        timed_span(&tracer, "mig.rewrite", key + 1, root.id(), [&] {
          slot = std::make_shared<const rlim::mig::Mig>(
              rlim::core::prepare(original, config));
        });
        computed = true;
      }
      prepared = slot;
    }
    rlim::core::EnduranceReport report;
    timed_span(&tracer, "plim.compile", key + 1, root.id(), [&] {
      report = rlim::core::compile_prepared(*prepared, config, {},
                                            original.num_gates());
    });
    const auto& stats = first[key].rewrite_stats;
    timed_span(&tracer, "store.put", key + 1, root.id(), [&] {
      if (computed) {
        (void)store.store_rewrite(source.fingerprint(),
                                  config.rewrite.canonical(), *prepared, stats);
      }
      (void)store.store_program(source.fingerprint(), canonical, *prepared,
                                stats, report);
    });
  }
}

}  // namespace

WorkloadResult run_paper_cold(const Options& options, Tracer* trace) {
  WorkloadResult out;
  out.facts["streams"] = std::to_string(kStreams);
  out.facts["workers"] = std::to_string(kWorkers);

  SetupTiming setup_timing;
  auto setup = repeated_setup(setup_timing,
                              [&] { return make_setup(trace); });
  const auto keys = key_count(*setup);
  Collected collected;

  if (trace == nullptr) {
    const auto window = timed_window(options.seconds, kMinTimedJobs,
                                     kWindowCapSeconds);
    auto pass = run_pass(
        *setup, options, nullptr,
        [&](std::uint64_t rounds, std::uint64_t jobs) {
          return rounds % 2 == 1 || window(jobs);  // whole pairs of rounds
        },
        collected);
    add_end_to_end(out, pass.samples, pass.marks, false);
    out.attempted = pass.samples.size();
    out.facts["rounds"] = std::to_string(pass.rounds);
    out.failed = gate(*setup, options, collected, out);
    // The second block of set-ups (see SetupTiming).
    setup.reset();
    (void)repeated_setup(setup_timing, [&] { return make_setup(nullptr); });
    add_setup(out, setup_timing);
    return out;
  }

  // Traced run: the same fixed work untraced, traced, and untraced again
  // (the overhead compares against both neighbours), then the direct-call
  // split of a round. Counts cover the traced pass only.
  const auto rounds = [](std::uint64_t done, std::uint64_t) {
    return done < kTraceRounds;
  };
  Collected before_collected;
  Collected after_collected;
  const auto before =
      run_pass(*setup, options, nullptr, rounds, before_collected);
  const auto traced = run_pass(*setup, options, trace, rounds, collected);
  const auto after = run_pass(*setup, options, nullptr, rounds, after_collected);
  for (std::uint64_t round = 0; round < kReplayRounds; ++round) {
    replay_round(*setup, options, collected.first, round, *trace);
  }
  probe_enqueue_to_start(*trace, kWorkers, kStreams, kProbeTasks);

  for (const auto* pass : {&before, &traced, &after}) {
    out.attempted += pass->samples.size();
  }
  for (auto* kept : {&before_collected, &collected, &after_collected}) {
    out.failed += gate(*setup, options, *kept, out);
  }

  double job_ms = 0.0;
  for (const auto& sample : traced.samples) {
    job_ms += sample.latency_ms;
  }
  job_ms /= static_cast<double>(traced.samples.size());
  const auto k = static_cast<double>(keys * kReplayRounds);
  add_layer_times(out, *trace,
                  {{"benchmarks.build_ms", "benchmarks.build",
                    static_cast<double>(setup_timing.times.size()), false},
                   {"core.canonical_key_us", "core.canonical_key", k},
                   {"mig.rewrite_ms", "mig.rewrite", k},
                   {"plim.compile_ms", "plim.compile", k},
                   {"store.put_ms", "store.put", k},
                   {"sched.enqueue_to_start_us", "sched.enqueue_to_start",
                    static_cast<double>(kProbeTasks)}},
                  job_ms);
  const auto& stats = traced.stats;
  const auto ratio = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  out.metrics.push_back(
      {"mig.rewrite_calls", static_cast<double>(stats.rewrite_misses), "count"});
  out.metrics.push_back(
      {"mig.gates_out", static_cast<double>(traced.gates_out), "count"});
  out.metrics.push_back(
      {"pass.runs", static_cast<double>(traced.pass_runs), "count"});
  out.metrics.push_back({"pass.applications",
                         static_cast<double>(traced.pass_applications),
                         "count"});
  out.metrics.push_back({"plim.compile_calls",
                         static_cast<double>(stats.program_misses), "count"});
  out.metrics.push_back(
      {"plim.instructions", static_cast<double>(traced.instructions), "count"});
  out.metrics.push_back(
      {"plim.cells", static_cast<double>(traced.cells), "count"});
  out.metrics.push_back(
      {"store.bytes_written", static_cast<double>(stats.store_bytes), "B"});
  out.metrics.push_back(
      {"flow.cache.rewrite_hit_ratio",
       ratio(static_cast<double>(stats.rewrite_hits),
             static_cast<double>(stats.rewrite_misses)),
       "ratio"});
  out.metrics.push_back(
      {"flow.cache.program_hit_ratio",
       ratio(static_cast<double>(stats.program_hits),
             static_cast<double>(stats.program_misses)),
       "ratio"});
  out.metrics.push_back(
      {"flow.service.coalesced_frac",
       static_cast<double>(stats.coalesced) /
           static_cast<double>(std::max<std::size_t>(stats.submitted, 1)),
       "frac"});
  out.metrics.push_back(
      {"sched.steals", static_cast<double>(stats.steals), "count"});
  out.metrics.push_back(
      {"sched.parks", static_cast<double>(stats.parks), "count"});
  out.metrics.push_back(
      {"trace.overhead_pct",
       overhead_pct(before.cpu_s, traced.cpu_s, after.cpu_s), "%"});
  out.metrics.push_back(
      {"trace.spans", static_cast<double>(trace->spans().size()), "count"});
  out.facts["trace_rounds"] = std::to_string(kTraceRounds);
  out.facts["trace_jobs"] = std::to_string(traced.samples.size());
  complete_layer_metrics(out);
  return out;
}

}  // namespace perfbench
