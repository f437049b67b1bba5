#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rlim::cli {

/// Entry point of the `rlim_cli` tool, separated from main() for testing.
///
/// Commands:
///   info    <netlist>                     — PI/PO/gate/depth statistics
///   rewrite <in> <out> [options]          — run a rewriting flow
///   compile <netlist|bench:NAME>... [opts]— compile to RM3, print report(s)
///   suite                                 — list the built-in benchmarks;
///                                           with --config/--strategy:
///                                           compile the whole suite
///   serve   --stdin-jobs [opts]           — async job server over
///                                           flow::Service: reads newline-
///                                           delimited job specs from stdin,
///                                           executes them as they arrive,
///                                           streams one CSV result row per
///                                           job (see below)
///   serve   --listen HOST:PORT [opts]     — socket shard: accepts TCP
///                                           connections speaking length-
///                                           delimited flow::wire frames,
///                                           executes JobSpecs on an owned
///                                           flow::Service, streams results
///                                           back; SIGINT/SIGTERM shuts down
///   submit  --connect EP[,EP...] [opts]   — reads the same job-spec lines
///                                           as `serve --stdin-jobs`, ships
///                                           them to serving shards via
///                                           consistent hashing with retry +
///                                           failover, prints the same CSV
///   stats   --connect EP[,EP...]          — ping every shard, render its
///                                           service/cache/store/scheduler
///                                           counters (scheduler rows render
///                                           only once any gauge is nonzero)
///   loadgen [--connect EP[,EP...]] [opts] — closed-loop load generator:
///                                           replays a seeded stream of
///                                           mini-suite compiles (mixed
///                                           sizes, randomized priorities and
///                                           deadlines, duplicate ratio)
///                                           through --streams concurrent
///                                           clients against an in-process
///                                           service (default) or a shard
///                                           fleet; reports jobs/sec and
///                                           p50/p99/p999 latency
///   policies                              — list the registered rewrite /
///                                           pass / selection / allocation
///                                           policies
///   cache   stats|gc|clear|verify         — maintain the persistent
///                                           pipeline store (see --cache-dir)
///   version (or --version)                — project + store format version
///
/// Options:
///   --strategy naive|plim21|min-write|endurance-rewrite|full (compile, suite)
///   --cap N        maximum write count strategy              (compile, suite)
///   --config SPEC  registry-keyed pipeline spec, e.g.        (compile, suite)
///                  "rewrite=endurance:effort=5,select=wear_quota:quota=4,
///                   alloc=start_gap,cap=100" or "full,cap=100"
///                  (replaces --strategy/--cap; see `rlim policies`).
///                  `rewrite=seq:passes=maj,dist,...` runs an explicit pass
///                  sequence (see the `pass` kind in `rlim policies`)
///   --flow plim21|endurance|level|seq                          (rewrite)
///   --passes P,P,...  pass list for --flow seq                 (rewrite)
///   --until PASS   stop each cycle after the named pass        (rewrite)
///   --dump-after DIR|-  dump the MIG after every pass run to
///                  one file per snapshot in DIR, or to stderr  (rewrite)
///   --effort N     rewriting cycles (default 5)
///   --jobs N       worker threads for batch compiles     (compile, serve)
///                  (default: hardware concurrency)
///   --stdin-jobs   read `NETLIST [CONFIG-SPEC]` lines from stdin   (serve)
///   --listen HOST:PORT        bind the socket front-end            (serve)
///                  (port 0 binds an ephemeral port, printed on stderr)
///   --connect EP[,EP...]      shard endpoints              (submit, stats)
///   --retries N    reconnect-and-resend rounds per shard (default 3)
///                                                        (submit, stats)
///   --connect-timeout-ms N    TCP connect ceiling (default 2000)
///   --request-timeout-ms N    per-connection inactivity ceiling while
///                  responses are outstanding (default 30000)
///   --max-frame-bytes N       wire-frame ceiling, enforced before any
///                  allocation (default 64 MiB)      (serve, submit, stats)
///   --format table|csv|json   report serialization   (compile, suite, policies)
///   --disasm       print the RM3 program (single netlist only) (compile)
///   --verify       cross-check the program on the crossbar     (compile)
///   --cache-dir D  persistent pipeline store directory (compile, suite, cache);
///                  overrides the RLIM_CACHE_DIR environment variable. When
///                  neither is set, compile/suite keep the disk tier off and
///                  `cache` commands fail. A second identical sweep against
///                  the same store recompiles nothing and prints a cache
///                  summary line on stderr (stdout stays byte-identical).
///   --max-bytes N  size cap for `cache gc` (evicts oldest-first)
///   --max-age-days N  age cap for `cache gc`
///   --priority low|normal|high  default scheduling priority for jobs whose
///                  line carries no `@` token (serve, submit); pins the whole
///                  stream's priority for loadgen
///   --deadline-ms N  default soft deadline, milliseconds relative to arrival
///                  at the executing shard (serve, submit, loadgen)
///   --count N      total jobs to replay (loadgen, default 100)
///   --streams N    concurrent closed-loop clients (loadgen, default 2)
///   --seed N       job-stream seed (loadgen; the stream is a pure
///                  function of it)
///   --duplicate-pct N  percentage of jobs that re-issue an earlier job
///                  verbatim, exercising coalescing and caches (default 25)
///
/// `compile` accepts any number of netlists and runs them as one
/// flow::Service::run batch: rewriting results are shared through the content-
/// addressed cache and the batch is executed on `--jobs` worker threads.
/// A single netlist in `table` format keeps the verbose key/value report;
/// everything else renders one summary row per netlist through the selected
/// ReportSink.
///
/// `serve --stdin-jobs` runs an asynchronous job loop over flow::Service:
/// each input line is `NETLIST [CONFIG-SPEC] [@PRIO[:DEADLINE_MS]]` (blank
/// lines and `#` comments skipped; lines without a config use
/// --config/--strategy, default `full`; the optional trailing `@` token —
/// e.g. `@high` or `@low:250` — selects the job's scheduling priority and
/// soft deadline, defaulting to --priority/--deadline-ms, else normal).
/// Jobs are submitted — and start executing on `--jobs` workers — as their
/// lines arrive; duplicate submissions are coalesced on (fingerprint,
/// canonical config key). Results stream to stdout as CSV rows in
/// submission order (the only order that keeps output byte-stable for any
/// worker count), one header row first; per-job failures become `error:`
/// rows and flip the exit code to 1 after the stream drains. Telemetry goes
/// to stderr.
///
/// `serve --listen HOST:PORT` binds the same execution loop behind a TCP
/// socket (net::Server): clients ship flow::wire JobSpec frames and receive
/// JobResult frames in completion order, tagged with their own ticket ids.
/// `submit --connect` is the matching client: it reads the identical job-
/// stream syntax, routes each job to a shard by consistent hashing on
/// (graph identity, canonical config key) — so repeated cells always hit
/// the same shard's cache — retries transport failures, fails over to the
/// surviving shards when one dies, and emits CSV rows in input order that
/// are byte-identical to a local `serve --stdin-jobs` run of the same
/// stream. `stats --connect` pings each shard and renders one column per
/// endpoint from its Stats reply.
///
/// Netlist files are selected by extension: `.mig` (text format) or `.blif`.
/// `bench:NAME` compiles a generator from the built-in suite.
///
/// Returns a process exit code; all output goes to `out` / `err`, and
/// `serve` reads its job stream from `in` (std::cin for the 3-argument
/// overload).
int run(const std::vector<std::string>& args, std::istream& in,
        std::ostream& out, std::ostream& err);
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace rlim::cli
