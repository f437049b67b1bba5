#include "flow/wire.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/config.hpp"
#include "store/serialize.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace rlim::flow::wire {

namespace {

/// magic + version + kind before the payload, hash after it.
constexpr std::size_t kHeaderSize = 4 + 4 + 1;
constexpr std::size_t kHashSize = 8;

/// Encoders write the payload straight after this header into the same
/// buffer (no second payload copy — inline graphs dominate frame size),
/// then seal() it.
util::ByteWriter frame_header(MessageKind kind) {
  util::ByteWriter out;
  out.raw(kMagic).u32(kWireVersion).u8(static_cast<std::uint8_t>(kind));
  return out;
}

std::string seal(util::ByteWriter out) {
  out.u64(util::fnv1a64(out.bytes()));
  return out.take();
}

/// Authenticates one frame and returns (kind, payload view into `bytes`).
std::pair<MessageKind, std::string_view> unframe(std::string_view bytes) {
  require(bytes.size() >= kHeaderSize + kHashSize, "wire: truncated frame");
  require(bytes.substr(0, kMagic.size()) == kMagic,
          "wire: bad magic (not a flow wire frame)");
  const auto body = bytes.substr(0, bytes.size() - kHashSize);
  util::ByteReader tail(bytes.substr(bytes.size() - kHashSize));
  require(tail.u64() == util::fnv1a64(body),
          "wire: integrity hash mismatch (frame damaged in transit)");
  util::ByteReader head(body.substr(kMagic.size()));
  const auto version = head.u32();
  require(version == kWireVersion,
          "wire: version mismatch (frame v" + std::to_string(version) +
              ", this build speaks v" + std::to_string(kWireVersion) + ")");
  const auto kind = head.u8();
  require(kind >= static_cast<std::uint8_t>(MessageKind::JobSpec) &&
              kind <= static_cast<std::uint8_t>(MessageKind::Stats),
          "wire: unknown message kind");
  return {static_cast<MessageKind>(kind), body.substr(kHeaderSize)};
}

std::string_view payload_of(std::string_view bytes, MessageKind expected) {
  const auto [kind, payload] = unframe(bytes);
  require(kind == expected,
          "wire: expected a " + std::string(to_string(expected)) +
              " frame, got " + std::string(to_string(kind)));
  return payload;
}

}  // namespace

// ---- JobSpec ---------------------------------------------------------------

JobSpec JobSpec::reference(std::string ref, const core::PipelineConfig& config,
                           std::string label) {
  require(!ref.empty(), "wire: JobSpec reference needs a source");
  JobSpec spec;
  spec.source_ref = std::move(ref);
  spec.config_spec = config.canonical_key();
  spec.label = std::move(label);
  return spec;
}

JobSpec JobSpec::inline_graph(mig::Mig graph, std::string graph_label,
                              const core::PipelineConfig& config,
                              std::string label) {
  JobSpec spec;
  spec.graph = std::move(graph);
  spec.graph_label = std::move(graph_label);
  spec.config_spec = config.canonical_key();
  spec.label = std::move(label);
  return spec;
}

Job JobSpec::to_job() const {
  Job job;
  if (graph) {
    job.source =
        Source::graph(*graph, graph_label.empty() ? "inline" : graph_label);
  } else {
    job.source = Source::netlist(source_ref);
  }
  job.config = core::PipelineConfig::parse(config_spec);
  job.label = label;
  job.priority = priority;
  if (deadline_ms) {
    job.deadline = std::chrono::milliseconds(*deadline_ms);
  }
  return job;
}

std::string encode(const JobSpec& spec) {
  auto out = frame_header(MessageKind::JobSpec);
  out.u8(spec.graph.has_value() ? 1 : 0);
  if (spec.graph) {
    out.str(spec.graph_label);
    store::encode(out, *spec.graph);
  } else {
    out.str(spec.source_ref);
  }
  out.str(spec.config_spec);
  out.str(spec.label);
  out.u8(static_cast<std::uint8_t>(spec.priority));
  out.u8(spec.deadline_ms.has_value() ? 1 : 0);
  if (spec.deadline_ms) {
    out.u64(*spec.deadline_ms);
  }
  return seal(std::move(out));
}

JobSpec decode_job_spec(std::string_view bytes) {
  util::ByteReader in(payload_of(bytes, MessageKind::JobSpec));
  JobSpec spec;
  const auto has_graph = in.u8();
  require(has_graph <= 1, "wire: bad JobSpec source tag");
  if (has_graph == 1) {
    spec.graph_label = in.str();
    spec.graph = store::decode_mig(in);
  } else {
    spec.source_ref = in.str();
    require(!spec.source_ref.empty(), "wire: JobSpec without a source");
  }
  spec.config_spec = in.str();
  spec.label = in.str();
  const auto priority = in.u8();
  require(priority < sched::kPriorityBands, "wire: bad JobSpec priority");
  spec.priority = static_cast<sched::Priority>(priority);
  const auto has_deadline = in.u8();
  require(has_deadline <= 1, "wire: bad JobSpec deadline tag");
  if (has_deadline == 1) {
    spec.deadline_ms = in.u64();
  }
  in.expect_end();
  // Validate eagerly, exactly like the disk store's report decoder: a spec
  // naming a policy this build does not register is rejected at the wire
  // boundary, not deep inside a worker.
  (void)core::PipelineConfig::parse(spec.config_spec);
  return spec;
}

// ---- JobResult -------------------------------------------------------------

std::string encode(const JobResult& result) {
  auto out = frame_header(MessageKind::JobResult);
  if (!result.ok()) {
    out.u8(0).str(result.error);
    return seal(std::move(out));
  }
  out.u8(1);
  store::encode(out, result.rewrite_stats);
  store::encode(out, result.report);
  out.u8(result.prepared != nullptr ? 1 : 0);
  if (result.prepared != nullptr) {
    store::encode(out, *result.prepared);
  }
  return seal(std::move(out));
}

JobResult decode_job_result(std::string_view bytes) {
  util::ByteReader in(payload_of(bytes, MessageKind::JobResult));
  JobResult result;
  const auto ok = in.u8();
  require(ok <= 1, "wire: bad JobResult status tag");
  if (ok == 0) {
    result.error = in.str();
    require(!result.error.empty(), "wire: failed JobResult without an error");
    in.expect_end();
    return result;
  }
  result.rewrite_stats = store::decode_rewrite_stats(in);
  result.report = store::decode_report(in);
  const auto has_prepared = in.u8();
  require(has_prepared <= 1, "wire: bad JobResult graph tag");
  if (has_prepared == 1) {
    result.prepared = std::make_shared<const mig::Mig>(store::decode_mig(in));
  }
  in.expect_end();
  return result;
}

// ---- Ping / Stats ----------------------------------------------------------

std::string encode_ping() { return seal(frame_header(MessageKind::Ping)); }

void decode_ping(std::string_view bytes) {
  util::ByteReader in(payload_of(bytes, MessageKind::Ping));
  in.expect_end();
}

// Stats payload: u8 has_store | u32 count | count x (str name, u64 value).
// The storeless variant leaves the Store rows out.

std::string encode(const StatsReply& stats) {
  auto out = frame_header(MessageKind::Stats);
  out.u8(stats.has_store ? 1 : 0);
  const auto shipped = [&](const StatsMetric& metric) {
    return stats.has_store || metric.group != StatsGroup::Store;
  };
  out.u32(static_cast<std::uint32_t>(
      std::count_if(kStatsMetrics.begin(), kStatsMetrics.end(), shipped)));
  for (const auto& metric : kStatsMetrics) {
    if (shipped(metric)) {
      out.str(metric.name).u64(stats.*metric.field);
    }
  }
  return seal(std::move(out));
}

StatsReply decode_stats(std::string_view bytes) {
  util::ByteReader in(payload_of(bytes, MessageKind::Stats));
  StatsReply stats;
  const auto has_store = in.u8();
  require(has_store <= 1, "wire: bad StatsReply store tag");
  stats.has_store = has_store == 1;
  // The smallest entry is a u32 name length, one name byte and the u64.
  constexpr std::size_t kMinEntryBytes = 4 + 1 + 8;
  const auto count = in.u32();
  require(count <= in.remaining() / kMinEntryBytes,
          "wire: StatsReply metric count exceeds the frame");
  std::set<std::string_view> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name = in.str_view();
    require(!name.empty(), "wire: StatsReply metric without a name");
    require(seen.insert(name).second,
            "wire: StatsReply metric '" + std::string(name) + "' repeated");
    const auto value = in.u64();
    // Unknown names come from a newer shard: skip them.
    const auto metric =
        std::find_if(kStatsMetrics.begin(), kStatsMetrics.end(),
                     [&](const StatsMetric& m) { return m.name == name; });
    if (metric != kStatsMetrics.end()) {
      stats.*metric->field = value;
    }
  }
  in.expect_end();
  return stats;
}

MessageKind peek_kind(std::string_view frame) { return unframe(frame).first; }

}  // namespace rlim::flow::wire
