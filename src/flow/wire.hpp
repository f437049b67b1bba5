#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "flow/job.hpp"

namespace rlim::flow::wire {

/// The process-boundary message format of the flow layer — what a socket
/// front-end or shard coordinator speaks. Every message is one self-framed
/// byte string:
///
///   "RLWM" | u32 wire version | u8 kind | payload | u64 FNV-1a hash
///
/// The hash covers every framed byte before it; decoders authenticate the
/// frame (magic, version, hash, kind) before touching the payload, and
/// payload decoding reuses the store::serialize validators (structural MIG
/// replay, fingerprint check, config re-parse), so a damaged or stale frame
/// throws rlim::Error instead of decoding into a wrong object.
///
/// kWireVersion covers the framing and every payload layout below, so two
/// processes either agree on the bytes or refuse loudly. It moves together
/// with store::kFormatVersion only when a layout the two share changes
/// (JobResult payloads reuse the store encoders); the Stats payload is
/// self-describing, so a new shard metric bumps neither.

inline constexpr std::string_view kMagic = "RLWM";
// v4: per-pass RewriteStats; v5: JobSpec priority/deadline + StatsReply
// scheduler gauges; v6: Stats payload became a list of named metrics.
inline constexpr std::uint32_t kWireVersion = 6;

/// Ceiling a frame consumer should enforce on any untrusted length prefix
/// *before* allocating or resizing a buffer — an absurd u32 from a damaged
/// or hostile peer must cost a clean rlim::Error, never a multi-GB resize.
/// The net transport's stream framing takes this as its configurable
/// default; generous enough for the largest inline-graph JobResult the
/// suite produces by two orders of magnitude.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

enum class MessageKind : std::uint8_t {
  JobSpec = 1,    ///< a job to execute (request)
  JobResult = 2,  ///< the outcome of one job (response)
  Ping = 3,       ///< health probe (request; empty payload)
  Stats = 4,      ///< shard health snapshot (Ping response)
};

[[nodiscard]] constexpr std::string_view to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::JobSpec:
      return "job-spec";
    case MessageKind::JobResult:
      return "job-result";
    case MessageKind::Ping:
      return "ping";
    case MessageKind::Stats:
      return "stats";
  }
  return "unknown";
}

/// Serializable description of one Job. Exactly one source representation is
/// set: `source_ref` names a netlist the executing side resolves itself
/// (`bench:NAME`, `*.mig`, `*.blif` — cheap to ship, requires the file or
/// generator on the far side), or `graph` carries the MIG inline (self-
/// contained, any process can execute it). The config travels as its spec
/// string and is validated against the receiving registry on decode.
struct JobSpec {
  std::string source_ref;         ///< netlist reference; empty when inline
  std::optional<mig::Mig> graph;  ///< inline graph; used when set
  std::string graph_label;        ///< Source label of an inline graph
  std::string config_spec;        ///< PipelineConfig spec-grammar string
  std::string label;              ///< Job::label (report label override)
  /// Scheduling hints (wire v5), honored by the executing Service's
  /// work-stealing scheduler. Neither changes the result bytes.
  sched::Priority priority = sched::Priority::Normal;
  /// Soft latency budget in milliseconds, relative to arrival at the
  /// executing shard (shipping an absolute time point across machines
  /// would smuggle clock skew into dequeue order).
  std::optional<std::uint64_t> deadline_ms{};

  /// A by-reference spec (the config is stored as its canonical key).
  [[nodiscard]] static JobSpec reference(std::string ref,
                                         const core::PipelineConfig& config,
                                         std::string label = {});
  /// A self-contained spec carrying the graph itself.
  [[nodiscard]] static JobSpec inline_graph(mig::Mig graph,
                                            std::string graph_label,
                                            const core::PipelineConfig& config,
                                            std::string label = {});

  /// Materializes the executable Job (resolves the source, parses the
  /// config). Throws rlim::Error for unresolvable refs or bad specs.
  [[nodiscard]] Job to_job() const;
};

/// Health snapshot of one serving shard: the Service's lifetime counters,
/// the two cache levels' hit/miss counts, the disk-tier counters when a
/// persistent store is attached, and the work-stealing scheduler's gauges.
/// Everything a fleet monitor needs to tell a hot shard (disk hits) from a
/// cold or thrashing one, shipped as the response to a Ping frame and
/// printed by `rlim stats --connect`. Every u64 field is one row of
/// kStatsMetrics below; net::Server::stats_reply() fills them.
struct StatsReply {
  // Serving-side shape.
  std::uint64_t workers = 0;
  // flow::ServiceStats, field for field.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t executed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t cancelled = 0;
  // PipelineCache counters (both levels).
  std::uint64_t rewrite_hits = 0;
  std::uint64_t rewrite_misses = 0;
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  // store::StoreCounters; meaningful only when has_store is true.
  bool has_store = false;
  std::uint64_t store_rewrite_loads = 0;
  std::uint64_t store_program_loads = 0;
  std::uint64_t store_load_misses = 0;
  std::uint64_t store_stores = 0;
  std::uint64_t store_failures = 0;
  std::uint64_t store_evicted_corrupt = 0;
  std::uint64_t store_evicted_version = 0;
  // sched::SchedulerStats: queue_depth is a point-in-time gauge; the rest
  // are lifetime counters. sched_low/normal/high count accepted tasks per
  // priority band.
  std::uint64_t sched_queue_depth = 0;
  std::uint64_t sched_stolen = 0;
  std::uint64_t sched_parks = 0;
  std::uint64_t sched_overflows = 0;
  std::uint64_t sched_forked = 0;
  std::uint64_t sched_low = 0;
  std::uint64_t sched_normal = 0;
  std::uint64_t sched_high = 0;

  bool operator==(const StatsReply&) const = default;
};

/// The `rlim stats` block a metric renders in: Store rows only when some
/// shard has a disk tier, Sched rows only when some gauge is nonzero.
enum class StatsGroup : std::uint8_t { Core, Store, Sched };

/// One shard metric: its name is both its wire key and its `rlim stats`
/// row label.
struct StatsMetric {
  std::string_view name;
  std::uint64_t StatsReply::*field;
  StatsGroup group;
};

/// Every shard metric, in `rlim stats` row order — the one place a metric
/// is named. Adding one is a StatsReply field, a row here and a fill line in
/// net::Server::stats_reply(); the wire version stays, because the decoder
/// skips names it does not know and leaves absent ones at 0.
inline constexpr std::array kStatsMetrics = {
    StatsMetric{"workers", &StatsReply::workers, StatsGroup::Core},
    StatsMetric{"submitted", &StatsReply::submitted, StatsGroup::Core},
    StatsMetric{"completed", &StatsReply::completed, StatsGroup::Core},
    StatsMetric{"executed", &StatsReply::executed, StatsGroup::Core},
    StatsMetric{"coalesced", &StatsReply::coalesced, StatsGroup::Core},
    StatsMetric{"cancelled", &StatsReply::cancelled, StatsGroup::Core},
    StatsMetric{"rewrite hits", &StatsReply::rewrite_hits, StatsGroup::Core},
    StatsMetric{"rewrite misses", &StatsReply::rewrite_misses,
                StatsGroup::Core},
    StatsMetric{"program hits", &StatsReply::program_hits, StatsGroup::Core},
    StatsMetric{"program misses", &StatsReply::program_misses,
                StatsGroup::Core},
    StatsMetric{"store rewrite loads", &StatsReply::store_rewrite_loads,
                StatsGroup::Store},
    StatsMetric{"store program loads", &StatsReply::store_program_loads,
                StatsGroup::Store},
    StatsMetric{"store load misses", &StatsReply::store_load_misses,
                StatsGroup::Store},
    StatsMetric{"store stores", &StatsReply::store_stores, StatsGroup::Store},
    StatsMetric{"store failures", &StatsReply::store_failures,
                StatsGroup::Store},
    StatsMetric{"store evicted corrupt", &StatsReply::store_evicted_corrupt,
                StatsGroup::Store},
    StatsMetric{"store evicted version", &StatsReply::store_evicted_version,
                StatsGroup::Store},
    StatsMetric{"sched queue depth", &StatsReply::sched_queue_depth,
                StatsGroup::Sched},
    StatsMetric{"sched stolen", &StatsReply::sched_stolen, StatsGroup::Sched},
    StatsMetric{"sched parks", &StatsReply::sched_parks, StatsGroup::Sched},
    StatsMetric{"sched overflows", &StatsReply::sched_overflows,
                StatsGroup::Sched},
    StatsMetric{"sched forked", &StatsReply::sched_forked, StatsGroup::Sched},
    StatsMetric{"sched jobs low", &StatsReply::sched_low, StatsGroup::Sched},
    StatsMetric{"sched jobs normal", &StatsReply::sched_normal,
                StatsGroup::Sched},
    StatsMetric{"sched jobs high", &StatsReply::sched_high,
                StatsGroup::Sched},
};

/// Encodes one message into a framed byte string.
[[nodiscard]] std::string encode(const JobSpec& spec);
/// JobResult frames carry error-or-payload: a failed job ships only its
/// error string; a successful one ships RewriteStats, the EnduranceReport
/// (program included), and — when present — the prepared graph.
[[nodiscard]] std::string encode(const JobResult& result);
/// Stats frames carry has_store plus a count-prefixed list of (name, u64)
/// pairs, one per kStatsMetrics row (Store rows only when has_store).
[[nodiscard]] std::string encode(const StatsReply& stats);
/// A Ping frame (empty payload).
[[nodiscard]] std::string encode_ping();

/// Authenticates the frame and returns its kind without decoding the
/// payload — the dispatch primitive of a message loop.
[[nodiscard]] MessageKind peek_kind(std::string_view frame);

/// Decoders: authenticate, check the kind, decode, reject trailing bytes.
[[nodiscard]] JobSpec decode_job_spec(std::string_view frame);
[[nodiscard]] JobResult decode_job_result(std::string_view frame);
/// Rejects a count larger than the bytes present, an empty name and a
/// repeated name; skips unknown names and leaves absent metrics at 0.
[[nodiscard]] StatsReply decode_stats(std::string_view frame);
/// Authenticates a Ping frame (throws on anything else).
void decode_ping(std::string_view frame);

}  // namespace rlim::flow::wire
