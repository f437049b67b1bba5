// fault_mc: Monte-Carlo lifetime sweeps. Each job compiles one paper-suite
// graph of at most 15k gates under the `full` preset with one seeded
// fault scenario (stuck with and without remap, drift, variation, mixed), so
// no compiled program is ever reused, while the rewrite warmed in set-up is
// shared. Trials fork as High-priority scheduler children; plim::evaluate on
// a FaultArray plus the mig::simulate reference take most of each job, so
// crossbar changes show here and nowhere else.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "benchmarks/suite.hpp"
#include "core/config.hpp"
#include "fault/array.hpp"
#include "flow/service.hpp"
#include "mig/simulate.hpp"
#include "plim/controller.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using rlim::core::PipelineConfig;

constexpr unsigned kStreams = 1;
constexpr unsigned kWorkers = 2;
constexpr double kSliceSeconds = 2.0;
/// The paper-suite graphs of at most 15k gates: programs from a few hundred
/// to about twenty thousand instructions. Only these are built, so set-up
/// never allocates the large graphs the window does not use.
constexpr const char* kGraphs[] = {"adder", "bar",      "log2",     "max",
                                   "cavlc", "ctrl",     "dec",      "i2c",
                                   "int2float", "priority", "router", "voter"};
constexpr std::uint32_t kTrials = 8;
/// Per-job budget of simulated instruction executions: the censoring cap is
/// sized so a trial set that never fails costs about this much, whatever the
/// program size — small graphs run more executions, large ones fewer.
constexpr std::uint64_t kInstructionBudget = 1'500'000;
constexpr std::uint64_t kMinRuns = 4;
constexpr std::uint64_t kMaxRuns = 2000;
constexpr std::size_t kTableSize = 1u << 15;
constexpr std::uint64_t kDigestJobs = 256;
constexpr std::uint64_t kTraceJobs = 300;
constexpr std::uint64_t kReplayJobs = 32;

/// One generated fault scenario; the config string is assembled per job.
struct Scenario {
  std::uint8_t graph = 0;
  std::uint8_t model = 0;  ///< stuck, stuck+remap, drift, variation, mixed
  std::uint8_t rate = 0;   ///< index into the model's rate pair
  std::uint8_t endurance = 0;
  bool sigma = false;
  std::uint32_t seed = 0;
};

std::vector<Scenario> make_scenarios(std::uint64_t seed, std::size_t graphs) {
  rlim::util::Xoshiro256 rng(rlim::util::mix_seed(seed, 0xfa017));
  std::vector<Scenario> scenarios(kTableSize);
  for (auto& scenario : scenarios) {
    scenario.graph = static_cast<std::uint8_t>(rng.below(graphs));
    scenario.model = static_cast<std::uint8_t>(rng.below(5));
    scenario.rate = static_cast<std::uint8_t>(rng.below(2));
    scenario.endurance = static_cast<std::uint8_t>(rng.below(3));
    scenario.sigma = rng.below(2) == 1;
    scenario.seed = static_cast<std::uint32_t>(rng());
  }
  return scenarios;
}

struct Setup {
  std::vector<rlim::flow::SourcePtr> sources;  ///< kGraphs order
  PipelineConfig base = PipelineConfig::parse("full");
  std::vector<std::uint64_t> runs;  ///< censoring cap per graph
  /// The warm-up results: the shared rewritten graphs and their programs.
  std::vector<rlim::flow::JobResult> warm;
  std::unique_ptr<rlim::flow::Service> service;
};

std::unique_ptr<Setup> make_setup(Tracer* tracer) {
  auto setup = std::make_unique<Setup>();
  for (const auto* name : kGraphs) {
    Scope scope(tracer, "benchmarks.build", 0);
    const auto& spec = rlim::bench::find_benchmark(name);
    setup->sources.push_back(rlim::flow::Source::graph(spec.build(), name));
  }
  rlim::flow::ServiceOptions options;
  options.jobs = kWorkers;
  // Every job carries its own seed, so a compiled program is never reused;
  // caching them would only grow memory with the length of the window.
  options.cache_programs = false;
  setup->service = std::make_unique<rlim::flow::Service>(options);
  // Warm the shared rewrites with one fault-free job per graph; its program
  // size sizes the graph's censoring cap.
  std::vector<rlim::flow::Job> jobs;
  for (const auto& source : setup->sources) {
    rlim::flow::Job job;
    job.source = source;
    job.config = setup->base;
    jobs.push_back(std::move(job));
  }
  setup->warm =
      setup->service->collect(setup->service->submit_batch(std::move(jobs)));
  for (const auto& result : setup->warm) {
    if (!result.ok()) {
      throw std::runtime_error("fault_mc warm-up failed: " + result.error);
    }
    setup->runs.push_back(std::clamp<std::uint64_t>(
        kInstructionBudget / (kTrials * result.report.instructions), kMinRuns,
        kMaxRuns));
  }
  return setup;
}

std::string fault_spec(const Setup& setup, const Scenario& scenario) {
  static const char* const kEndurance[] = {"400", "4000", "0"};
  std::string spec;
  const bool high = scenario.rate == 1;
  switch (scenario.model) {
    case 0:
      spec = std::string("stuck:rate=") + (high ? "0.002" : "0.0002") +
             ":wear_rate=0.00001";
      break;
    case 1:
      spec = std::string("stuck:rate=") + (high ? "0.002" : "0.0002") +
             ":wear_rate=0.00001:repair=remap:spares=16";
      break;
    case 2:
      spec = std::string("drift:rate=") + (high ? "0.0001" : "0.00001");
      break;
    case 3:
      spec = std::string("variation:fail_rate=") + (high ? "0.0001" : "0.00001");
      break;
    default:
      spec = std::string("mixed:mem_rate=0.00001:logic_rate=") +
             (high ? "0.001" : "0.0001") + ":logic_wear=2";
      break;
  }
  spec += std::string(":endurance=") + kEndurance[scenario.endurance];
  spec += scenario.sigma ? ":sigma=0.3" : ":sigma=0";
  spec += ":trials=" + std::to_string(kTrials);
  spec += ":runs=" + std::to_string(setup.runs[scenario.graph]);
  spec += ":seed=" + std::to_string(scenario.seed);
  return "full,fault=" + spec;
}

/// What the gate keeps of each job.
struct Outcome {
  bool ok = false;
  std::uint64_t digest = 0;
  rlim::fault::LifetimeDistribution dist;
  std::uint64_t instructions = 0;
  std::uint64_t cells = 0;
};

struct Pass {
  std::vector<Sample> samples;
  std::vector<Outcome> outcomes;
  rlim::sched::SchedulerStats sched_before;
  rlim::sched::SchedulerStats sched_after;
  std::size_t rewrite_hits = 0;
  std::size_t rewrite_misses = 0;
  std::size_t executed = 0;
  std::vector<Mark> marks;  ///< every kSliceSeconds
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Pass run_pass(const Setup& setup, const std::vector<Scenario>& scenarios,
              const std::function<bool(std::uint64_t)>& keep_going,
              Tracer* tracer) {
  Pass pass;
  auto& service = *setup.service;
  const auto& cache = service.cache();
  const auto rewrite_hits = cache.hits();
  const auto rewrite_misses = cache.misses();
  const auto executed = service.stats().executed;
  pass.sched_before = service.scheduler_stats();
  std::vector<std::vector<std::pair<std::uint64_t, Outcome>>> outcomes(
      kStreams);
  Ticker ticker(kSliceSeconds);
  pass.samples = closed_loop(
      kStreams, keep_going,
      [&](unsigned stream, std::uint64_t index, std::int64_t& done) {
        const auto& scenario = scenarios[index % scenarios.size()];
        rlim::flow::Job job;
        job.source = setup.sources[scenario.graph];
        job.config = PipelineConfig::parse(fault_spec(setup, scenario));
        Outcome outcome;
        rlim::flow::JobResult result;
        {
          Scope scope(tracer, "flow.service.job", index + 1, 0, stream + 1);
          result = service.wait(service.submit(std::move(job)));
        }
        done = now_ns();
        outcome.ok = result.ok() && result.report.fault_sweep.has_value();
        if (outcome.ok) {
          outcome.digest = report_digest(result.report);
          outcome.dist = *result.report.fault_sweep;
          outcome.instructions = result.report.instructions;
          outcome.cells = result.report.rrams;
        }
        outcomes[stream].emplace_back(index, std::move(outcome));
        return result.ok();
      });
  pass.marks = ticker.stop();
  pass.wall_s =
      static_cast<double>(pass.marks.back().t_ns - pass.marks.front().t_ns) *
      1e-9;
  pass.cpu_s = pass.marks.back().cpu_s - pass.marks.front().cpu_s;
  pass.sched_after = service.scheduler_stats();
  pass.rewrite_hits = cache.hits() - rewrite_hits;
  pass.rewrite_misses = cache.misses() - rewrite_misses;
  pass.executed = service.stats().executed - executed;
  pass.outcomes.resize(pass.samples.size());
  for (auto& list : outcomes) {
    for (auto& [index, outcome] : list) {
      pass.outcomes[index] = std::move(outcome);
    }
  }
  return pass;
}

/// The gate: every distribution must equal a serial run_sweep of the same
/// seed on an off-pool thread, over a program compiled in-process. Returns
/// failed jobs (error results + mismatches).
std::uint64_t gate(const Setup& setup, const std::vector<Scenario>& scenarios,
                   Pass& pass, bool corrupt, WorkloadResult& out) {
  // Compiling ignores the fault clause, so one fault-free compile per graph
  // is the reference program of every job on it.
  std::uint64_t mismatches = 0;
  std::vector<rlim::core::EnduranceReport> programs;
  for (std::size_t graph = 0; graph < setup.sources.size(); ++graph) {
    const auto& prepared = *setup.warm[graph].prepared;
    programs.push_back(rlim::core::compile_prepared(
        prepared, setup.base, {},
        setup.sources[graph]->original().num_gates()));
    if (!rlim::plim::program_matches_mig(programs.back().program, prepared, 4,
                                         graph + 1)) {
      ++mismatches;
      std::cerr << "perfbench: fault_mc: " << setup.sources[graph]->label()
                << ": program differs from its MIG\n";
    }
  }
  if (corrupt && !pass.outcomes.empty()) {
    pass.outcomes.front().digest ^= 1;
  }
  std::vector<std::uint8_t> bad(pass.outcomes.size(), 0);
  std::atomic<std::size_t> next{0};
  const auto check = [&] {
    while (true) {
      const auto index = next.fetch_add(1);
      if (index >= pass.outcomes.size()) {
        return;
      }
      const auto& outcome = pass.outcomes[index];
      if (!outcome.ok) {
        bad[index] = 1;
        continue;
      }
      const auto& scenario = scenarios[index % scenarios.size()];
      auto expected = programs[scenario.graph];
      expected.config = PipelineConfig::parse(fault_spec(setup, scenario));
      expected.fault_sweep = rlim::fault::run_sweep(
          expected.program, *setup.warm[scenario.graph].prepared,
          rlim::fault::make_sweep(expected.config.fault));
      if (report_digest(expected) != outcome.digest) {
        bad[index] = 2;
      }
    }
  };
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&] {
      use_all_cpus();  // the gate is untimed; the window's threads stay put
      check();
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  std::uint64_t failed = mismatches;
  for (const auto flag : bad) {
    failed += flag != 0 ? 1 : 0;
    mismatches += flag == 2 ? 1 : 0;
  }
  if (mismatches != 0) {
    std::cerr << "perfbench: fault_mc: " << mismatches
              << " results differ from the serial reference\n";
  }
  out.mismatches += mismatches;
  // Digest of the modelled hardware over a fixed prefix of the job stream,
  // so it does not depend on how many jobs the window completed.
  Digest hw;
  for (std::size_t graph = 0; graph < programs.size(); ++graph) {
    add_hw_stats(hw, programs[graph]);
  }
  const auto prefix = std::min<std::size_t>(kDigestJobs, pass.outcomes.size());
  for (std::size_t index = 0; index < prefix; ++index) {
    add_distribution(hw, pass.outcomes[index].dist);
  }
  out.hw_digest = hw.hex();
  out.digest_entries = programs.size() + prefix;
  return failed;
}

/// Traced split of one job: compile alone, the serial sweep, and the
/// sweep's trials replayed as back-to-back plim::evaluate and mig::simulate
/// runs on the same program, graph, fault-array seeds and inputs.
void replay_job(const Setup& setup, const Scenario& scenario,
                const Outcome& outcome, std::uint64_t job, Tracer& tracer,
                std::uint64_t& evaluated_instructions) {
  const auto& prepared = *setup.warm[scenario.graph].prepared;
  const auto config = PipelineConfig::parse(fault_spec(setup, scenario));
  Scope root(&tracer, "replay", job);
  timed_span(&tracer, "core.canonical_key", job, root.id(),
             [&] { (void)config.canonical_key(); });
  auto compile_config = config;
  compile_config.fault = rlim::util::PolicySpec{"none", {}};
  rlim::core::EnduranceReport report;
  timed_span(&tracer, "plim.compile", job, root.id(), [&] {
    report = rlim::core::compile_prepared(prepared, compile_config);
  });
  const auto sweep = rlim::fault::make_sweep(config.fault);
  const auto sweep_id = tracer.open();
  auto start = now_ns();
  (void)rlim::fault::run_sweep(report.program, prepared, sweep);
  tracer.close(sweep_id, "fault.sweep", job, root.id(), 0, start, now_ns());

  const auto& program = report.program;
  std::vector<bool> memory_cells(program.num_cells(), false);
  for (const auto cell : program.pi_cells()) {
    memory_cells[cell] = true;
  }
  // Each trial is replayed on run_sweep's own inputs: the array seed and the
  // input stream fault/sweep.cpp derives per trial, and the trial's own
  // execution count, found by an untimed run of the trial first.
  constexpr std::uint64_t kSweepInputSalt = 0x696e70757473ULL;  // "inputs"
  const auto pis = prepared.num_pis();
  std::uint64_t executions = 0;
  for (std::uint32_t trial = 0; trial < sweep.trials; ++trial) {
    const auto array_seed = rlim::util::mix_seed(sweep.seed, trial);
    std::vector<std::uint64_t> inputs;
    std::uint64_t count = 0;
    {
      rlim::util::Xoshiro256 rng(rlim::util::mix_seed(
          rlim::util::mix_seed(sweep.seed, kSweepInputSalt), trial));
      rlim::fault::FaultArray array(program.num_cells(), sweep.profile,
                                    array_seed, memory_cells);
      std::vector<std::uint64_t> values(pis);
      while (count < sweep.runs) {
        for (auto& word : values) {
          word = rng();
        }
        inputs.insert(inputs.end(), values.begin(), values.end());
        ++count;
        if (rlim::plim::evaluate(program, values, &array) !=
            rlim::mig::simulate(prepared, values)) {
          break;  // the sweep's trial ends on its first wrong execution
        }
      }
    }
    executions += count;
    rlim::fault::FaultArray array(program.num_cells(), sweep.profile,
                                  array_seed, memory_cells);
    timed_span(&tracer, "plim.evaluate", job, sweep_id, [&] {
      for (std::uint64_t run = 0; run < count; ++run) {
        (void)rlim::plim::evaluate(
            program, std::span(inputs).subspan(run * pis, pis), &array);
      }
    });
    timed_span(&tracer, "mig.simulate", job, sweep_id, [&] {
      for (std::uint64_t run = 0; run < count; ++run) {
        (void)rlim::mig::simulate(prepared,
                                  std::span(inputs).subspan(run * pis, pis));
      }
    });
  }
  if (executions != sweep_executions(outcome.dist)) {
    throw std::runtime_error(
        "fault_mc: the evaluate/simulate split no longer replays run_sweep's "
        "trials (execution counts differ)");
  }
  evaluated_instructions += executions * program.size();
}

}  // namespace

WorkloadResult run_fault_mc(const Options& options, Tracer* trace) {
  WorkloadResult out;
  out.facts["streams"] = std::to_string(kStreams);
  out.facts["workers"] = std::to_string(kWorkers);

  SetupTiming setup_timing;
  auto setup = repeated_setup(setup_timing,
                              [&] { return make_setup(trace); });
  const auto scenarios = make_scenarios(options.seed, setup->sources.size());
  out.facts["graphs"] = std::to_string(setup->sources.size());

  if (trace == nullptr) {
    auto pass = run_pass(*setup, scenarios,
                         timed_window(options.seconds, kMinTimedJobs,
                                      kWindowCapSeconds),
                         nullptr);
    add_end_to_end(out, pass.samples, pass.marks, false);
    out.attempted = pass.samples.size();
    out.failed =
        gate(*setup, scenarios, pass, options.corrupt_result, out);
    // The second block of set-ups (see SetupTiming).
    setup.reset();
    (void)repeated_setup(setup_timing, [&] { return make_setup(nullptr); });
    add_setup(out, setup_timing);
    return out;
  }

  // Traced run: the same fixed job list untraced, traced, and untraced
  // again, then the direct-call split of the first kReplayJobs.
  const auto fixed = fixed_count(kTraceJobs);
  auto before = run_pass(*setup, scenarios, fixed, nullptr);
  auto traced = run_pass(*setup, scenarios, fixed, trace);
  auto after = run_pass(*setup, scenarios, fixed, nullptr);
  std::uint64_t evaluated_instructions = 0;
  for (std::uint64_t index = 0; index < kReplayJobs; ++index) {
    replay_job(*setup, scenarios[index], traced.outcomes[index], index + 1,
               *trace, evaluated_instructions);
  }
  probe_enqueue_to_start(*trace, kWorkers, kStreams, kProbeTasks);

  for (auto* pass : {&before, &traced, &after}) {
    out.attempted += pass->samples.size();
    out.failed += gate(*setup, scenarios, *pass, false, out);
  }

  double job_ms = 0.0;
  for (const auto& sample : traced.samples) {
    job_ms += sample.latency_ms;
  }
  job_ms /= static_cast<double>(traced.samples.size());
  const auto r = static_cast<double>(kReplayJobs);
  add_layer_times(out, *trace,
                  {{"benchmarks.build_ms", "benchmarks.build",
                    static_cast<double>(setup_timing.times.size()), false},
                   {"core.canonical_key_us", "core.canonical_key", r},
                   {"plim.compile_ms", "plim.compile", r},
                   {"fault.sweep_ms", "fault.sweep", r},
                   {"plim.evaluate_ms", "plim.evaluate", r},
                   {"mig.simulate_ms", "mig.simulate", r},
                   {"sched.enqueue_to_start_us", "sched.enqueue_to_start",
                    static_cast<double>(kProbeTasks)}},
                  job_ms);
  const auto evaluate_ns = trace->total_ns()["plim.evaluate"];
  out.metrics.push_back(
      {"plim.evaluate_instr_per_s",
       static_cast<double>(evaluated_instructions) / (evaluate_ns * 1e-9),
       "1/s"});

  std::uint64_t trials = 0;
  std::uint64_t executions = 0;
  std::uint64_t censored = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cells = 0;
  for (const auto& outcome : traced.outcomes) {
    trials += outcome.dist.trials;
    executions += sweep_executions(outcome.dist);
    censored += outcome.dist.censored;
    instructions += outcome.instructions;
    cells += outcome.cells;
  }
  double simulated = 0.0;
  for (const auto& outcome : before.outcomes) {
    simulated += static_cast<double>(sweep_executions(outcome.dist)) *
                 static_cast<double>(outcome.instructions);
  }
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  out.metrics.push_back({"fault.trials", count(trials), "count"});
  out.metrics.push_back({"fault.executions", count(executions), "count"});
  out.metrics.push_back(
      {"fault.censored_frac",
       count(censored) / count(std::max<std::uint64_t>(trials, 1)), "frac"});
  out.metrics.push_back(
      {"fault.sim_instr_per_s", simulated / before.wall_s, "1/s"});
  out.metrics.push_back(
      {"mig.rewrite_calls", count(traced.rewrite_misses), "count"});
  out.metrics.push_back({"plim.compile_calls", count(traced.executed), "count"});
  out.metrics.push_back({"plim.instructions", count(instructions), "count"});
  out.metrics.push_back({"plim.cells", count(cells), "count"});
  const auto ratio = [&](std::size_t hits, std::size_t misses) {
    return hits + misses > 0 ? count(hits) / count(hits + misses) : 0.0;
  };
  out.metrics.push_back({"flow.cache.rewrite_hit_ratio",
                         ratio(traced.rewrite_hits, traced.rewrite_misses),
                         "ratio"});
  out.metrics.push_back(
      {"sched.forked",
       count(traced.sched_after.forked - traced.sched_before.forked), "count"});
  out.metrics.push_back(
      {"sched.steals",
       count(traced.sched_after.stolen - traced.sched_before.stolen), "count"});
  out.metrics.push_back(
      {"sched.parks",
       count(traced.sched_after.parks - traced.sched_before.parks), "count"});
  out.metrics.push_back(
      {"trace.overhead_pct",
       overhead_pct(before.cpu_s, traced.cpu_s, after.cpu_s), "%"});
  out.metrics.push_back(
      {"trace.spans", count(trace->spans().size()), "count"});
  out.facts["trace_jobs"] = std::to_string(kTraceJobs);
  out.facts["replayed_jobs"] = std::to_string(kReplayJobs);
  complete_layer_metrics(out);
  return out;
}

}  // namespace perfbench
