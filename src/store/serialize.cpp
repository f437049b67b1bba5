#include "store/serialize.hpp"

#include <array>
#include <type_traits>

#include "core/config.hpp"
#include "util/error.hpp"

namespace rlim::store {

// ---- mig::Mig --------------------------------------------------------------

namespace {

/// Exact byte size of the sections a header with these counts describes.
/// Computed in 64 bits so hostile counts cannot wrap the validation.
std::uint64_t mig_sections_bytes(std::uint32_t num_pis, std::uint32_t num_gates,
                                 std::uint32_t num_pos,
                                 std::uint32_t pi_pool_bytes,
                                 std::uint32_t po_pool_bytes) {
  return 4ull * num_pis + pi_pool_bytes + 4ull * num_pos + po_pool_bytes +
         12ull * num_gates + 4ull * num_pos;
}

}  // namespace

void encode(util::ByteWriter& out, const mig::Mig& graph) {
  const auto& pi_names = graph.pi_names();
  const auto& po_names = graph.po_names();
  const auto num_pis = graph.num_pis();
  const auto num_gates = graph.num_gates();
  const auto num_pos = graph.num_pos();
  const auto pi_pool_bytes = static_cast<std::uint32_t>(pi_names.pool().size());
  const auto po_pool_bytes = static_cast<std::uint32_t>(po_names.pool().size());
  out.u32(num_pis).u32(num_gates).u32(num_pos);
  out.u32(pi_pool_bytes).u32(po_pool_bytes);
  out.u32(static_cast<std::uint32_t>(mig_sections_bytes(
      num_pis, num_gates, num_pos, pi_pool_bytes, po_pool_bytes)));
  out.u32_array(pi_names.ends().data(), num_pis);
  out.raw(pi_names.pool());
  out.u32_array(po_names.ends().data(), num_pos);
  out.raw(po_names.pool());
  // Signal is a trivially-copyable u32 wrapper (static_asserted in mig.cpp),
  // so the fanin arena and PO list serialize as flat u32 sections.
  out.u32_array(reinterpret_cast<const std::uint32_t*>(
                    graph.gate_fanins().data()),
                3ull * num_gates);
  out.u32_array(reinterpret_cast<const std::uint32_t*>(graph.pos().data()),
                num_pos);
  out.u64(graph.fingerprint());
}

mig::Mig decode_mig(util::ByteReader& in) {
  const auto num_pis = in.u32();
  const auto num_gates = in.u32();
  const auto num_pos = in.u32();
  const auto pi_pool_bytes = in.u32();
  const auto po_pool_bytes = in.u32();
  const auto declared = in.u32();
  const auto expected = mig_sections_bytes(num_pis, num_gates, num_pos,
                                           pi_pool_bytes, po_pool_bytes);
  require(declared == expected,
          "store: MIG section table inconsistent with header counts");
  // Bound every count by the actual bytes present before sizing any arena,
  // so a corrupt header cannot demand a huge allocation.
  require(expected + 8 <= in.remaining(), "store: truncated MIG sections");

  std::vector<std::uint32_t> pi_ends(num_pis);
  in.u32_array(pi_ends.data(), num_pis);
  std::string pi_pool{in.view(pi_pool_bytes)};
  std::vector<std::uint32_t> po_ends(num_pos);
  in.u32_array(po_ends.data(), num_pos);
  std::string po_pool{in.view(po_pool_bytes)};

  mig::Mig::RawGraph raw;
  raw.num_pis = num_pis;
  raw.fanins.resize(num_gates);
  in.u32_array(reinterpret_cast<std::uint32_t*>(raw.fanins.data()),
               3ull * num_gates);
  raw.pos.resize(num_pos);
  in.u32_array(reinterpret_cast<std::uint32_t*>(raw.pos.data()), num_pos);
  raw.pi_names = mig::NamePool::adopt(std::move(pi_pool), std::move(pi_ends));
  raw.po_names = mig::NamePool::adopt(std::move(po_pool), std::move(po_ends));

  auto graph = mig::Mig::adopt_raw(std::move(raw));
  require(graph.fingerprint() == in.u64(),
          "store: MIG fingerprint mismatch after decode");
  return graph;
}

// ---- small records ---------------------------------------------------------

void encode(util::ByteWriter& out, const mig::RewriteStats& stats) {
  out.u64(stats.initial_gates)
      .u64(stats.final_gates)
      .u64(stats.initial_complement_edges)
      .u64(stats.final_complement_edges)
      .u32(static_cast<std::uint32_t>(stats.cycles_run))
      .u64(stats.total_applications);
  out.u32(static_cast<std::uint32_t>(stats.per_pass.size()));
  for (const auto& pass : stats.per_pass) {
    out.str(pass.name)
        .u64(pass.runs)
        .u64(pass.applications)
        .u64(static_cast<std::uint64_t>(pass.gate_delta))
        .u64(static_cast<std::uint64_t>(pass.complement_delta))
        .u64(static_cast<std::uint64_t>(pass.depth_delta))
        .u64(pass.wall_ns);
  }
}

mig::RewriteStats decode_rewrite_stats(util::ByteReader& in) {
  mig::RewriteStats stats;
  stats.initial_gates = in.u64();
  stats.final_gates = in.u64();
  stats.initial_complement_edges = in.u64();
  stats.final_complement_edges = in.u64();
  stats.cycles_run = static_cast<int>(in.u32());
  stats.total_applications = in.u64();
  // Smallest record: a u32 name length and six u64 fields. Checking the
  // count first keeps a forged one from sizing a multi-GB allocation.
  constexpr std::size_t kMinPassBytes = 4 + 6 * 8;
  const auto passes = in.u32();
  require(passes <= in.remaining() / kMinPassBytes,
          "store: RewriteStats pass count exceeds the bytes present");
  stats.per_pass.resize(passes);
  for (auto& pass : stats.per_pass) {
    pass.name = in.str();
    pass.runs = in.u64();
    pass.applications = in.u64();
    pass.gate_delta = static_cast<std::int64_t>(in.u64());
    pass.complement_delta = static_cast<std::int64_t>(in.u64());
    pass.depth_delta = static_cast<std::int64_t>(in.u64());
    pass.wall_ns = in.u64();
  }
  return stats;
}

void encode(util::ByteWriter& out, const util::WriteStats& stats) {
  out.u64(stats.count)
      .u64(stats.min)
      .u64(stats.max)
      .u64(stats.total)
      .f64(stats.mean)
      .f64(stats.stdev);
}

util::WriteStats decode_write_stats(util::ByteReader& in) {
  util::WriteStats stats;
  stats.count = in.u64();
  stats.min = in.u64();
  stats.max = in.u64();
  stats.total = in.u64();
  stats.mean = in.f64();
  stats.stdev = in.f64();
  return stats;
}

void encode(util::ByteWriter& out, const fault::LifetimeDistribution& dist) {
  out.u32(dist.trials)
      .u64(dist.runs_cap)
      .u32(dist.censored)
      .u64(dist.lifetime_min)
      .u64(dist.lifetime_p50)
      .u64(dist.lifetime_p99)
      .u64(dist.lifetime_max)
      .f64(dist.lifetime_mean)
      .u64(dist.failed_cells_min)
      .u64(dist.failed_cells_max)
      .f64(dist.failed_cells_mean)
      .u64(dist.remapped_total)
      .u64(dist.dropped_writes);
}

fault::LifetimeDistribution decode_lifetime_distribution(util::ByteReader& in) {
  fault::LifetimeDistribution dist;
  dist.trials = in.u32();
  dist.runs_cap = in.u64();
  dist.censored = in.u32();
  dist.lifetime_min = in.u64();
  dist.lifetime_p50 = in.u64();
  dist.lifetime_p99 = in.u64();
  dist.lifetime_max = in.u64();
  dist.lifetime_mean = in.f64();
  dist.failed_cells_min = in.u64();
  dist.failed_cells_max = in.u64();
  dist.failed_cells_mean = in.f64();
  dist.remapped_total = in.u64();
  dist.dropped_writes = in.u64();
  return dist;
}

// ---- plim::Program ---------------------------------------------------------

// An Instruction is three u32 words ({a, b} operand words + destination
// cell), so the instruction stream serializes as one contiguous
// little-endian u32 section — the same bulk-copy discipline as the MIG
// fanin arena. The asserts pin the layout the reinterpret_casts rely on.
static_assert(sizeof(plim::Operand) == 4 && alignof(plim::Operand) == 4);
static_assert(sizeof(plim::Instruction) == 12 &&
              alignof(plim::Instruction) == 4);
static_assert(std::is_trivially_copyable_v<plim::Instruction>);

void encode(util::ByteWriter& out, const plim::Program& program) {
  const auto instructions = program.instructions();
  out.u32(static_cast<std::uint32_t>(instructions.size()));
  out.u32(static_cast<std::uint32_t>(program.pi_cells().size()));
  out.u32(static_cast<std::uint32_t>(program.po_cells().size()));
  out.u32(program.num_cells());
  out.u32_array(reinterpret_cast<const std::uint32_t*>(instructions.data()),
                3 * instructions.size());
  out.u32_array(program.pi_cells().data(), program.pi_cells().size());
  out.u32_array(program.po_cells().data(), program.po_cells().size());
}

plim::Program decode_program(util::ByteReader& in) {
  plim::Program::RawProgram raw;
  const auto instructions = in.u32();
  const auto pis = in.u32();
  const auto pos = in.u32();
  raw.num_cells = in.u32();
  // Reject hostile counts against the actual bytes present before sizing
  // any allocation (64-bit math, immune to count overflow).
  const auto expected =
      4 * (3 * static_cast<std::uint64_t>(instructions) + pis + pos);
  require(expected <= in.remaining(),
          "store: program sections exceed payload size");
  raw.instructions.resize(instructions);
  in.u32_array(reinterpret_cast<std::uint32_t*>(raw.instructions.data()),
               3 * static_cast<std::size_t>(instructions));
  raw.pi_cells.resize(pis);
  in.u32_array(raw.pi_cells.data(), pis);
  raw.po_cells.resize(pos);
  in.u32_array(raw.po_cells.data(), pos);
  // adopt_raw re-validates everything a replayed build would have enforced.
  return plim::Program::adopt_raw(std::move(raw));
}

// ---- core::EnduranceReport -------------------------------------------------

void encode(util::ByteWriter& out, const core::EnduranceReport& report) {
  out.str(report.benchmark);
  out.str(report.config.canonical_key());
  out.u64(report.instructions);
  out.u64(report.rrams);
  encode(out, report.writes);
  out.u64(report.gates_before_rewrite);
  out.u64(report.gates_after_rewrite);
  encode(out, report.program);
  out.u8(report.fault_sweep.has_value() ? 1 : 0);
  if (report.fault_sweep) {
    encode(out, *report.fault_sweep);
  }
}

core::EnduranceReport decode_report(util::ByteReader& in,
                                    const core::PipelineConfig* expected_config,
                                    std::string_view expected_key) {
  core::EnduranceReport report;
  report.benchmark = in.str();
  const auto key = in.str_view();
  if (expected_config != nullptr && key == expected_key) {
    report.config = *expected_config;
  } else {
    report.config = core::PipelineConfig::parse(key);
  }
  report.instructions = in.u64();
  report.rrams = in.u64();
  report.writes = decode_write_stats(in);
  report.gates_before_rewrite = in.u64();
  report.gates_after_rewrite = in.u64();
  report.program = decode_program(in);
  const auto has_sweep = in.u8();
  require(has_sweep <= 1, "store: fault-sweep presence flag must be 0 or 1");
  if (has_sweep != 0) {
    report.fault_sweep = decode_lifetime_distribution(in);
  }
  return report;
}

// ---- store payloads --------------------------------------------------------

void encode_rewrite_payload(util::ByteWriter& out, const mig::Mig& graph,
                            const mig::RewriteStats& stats) {
  encode(out, graph);
  encode(out, stats);
}

void encode_program_payload(util::ByteWriter& out, const mig::Mig& prepared,
                            const mig::RewriteStats& rewrite_stats,
                            const core::EnduranceReport& report) {
  encode(out, prepared);
  encode(out, rewrite_stats);
  encode(out, report);
}

std::string encode_rewrite_payload(const mig::Mig& graph,
                                   const mig::RewriteStats& stats) {
  util::ByteWriter out;
  encode_rewrite_payload(out, graph, stats);
  return out.take();
}

std::string encode_program_payload(const mig::Mig& prepared,
                                   const mig::RewriteStats& rewrite_stats,
                                   const core::EnduranceReport& report) {
  util::ByteWriter out;
  encode_program_payload(out, prepared, rewrite_stats, report);
  return out.take();
}

std::string encode_payload(const RewritePayload& payload) {
  return encode_rewrite_payload(payload.graph, payload.stats);
}

std::string encode_payload(const ProgramPayload& payload) {
  return encode_program_payload(payload.prepared, payload.rewrite_stats,
                                payload.report);
}

RewritePayload decode_rewrite_payload(std::string_view bytes) {
  util::ByteReader in(bytes);
  RewritePayload payload;
  payload.graph = decode_mig(in);
  payload.stats = decode_rewrite_stats(in);
  in.expect_end();
  return payload;
}

ProgramPayload decode_program_payload(std::string_view bytes,
                                      const core::PipelineConfig* expected_config,
                                      std::string_view expected_key) {
  util::ByteReader in(bytes);
  ProgramPayload payload;
  payload.prepared = decode_mig(in);
  payload.rewrite_stats = decode_rewrite_stats(in);
  payload.report = decode_report(in, expected_config, expected_key);
  in.expect_end();
  return payload;
}

}  // namespace rlim::store
