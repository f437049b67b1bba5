#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "flow/job.hpp"
#include "mig/rewriting.hpp"

namespace rlim::store {
class DiskStore;
struct IoScratch;
}

namespace rlim::flow {

/// Two-level content-addressed cache shared by every job of a Service.
///
/// Level 1 (rewrite): rewritten MIGs keyed on (graph fingerprint, canonical
/// rewrite spec) — a sweep that compiles the same benchmark under many
/// strategies runs each rewriting flavour exactly once.
///
/// Level 2 (program): compiled programs keyed on (graph fingerprint,
/// PipelineConfig::canonical_key()) — repeated (source, config) pairs across
/// or within batches skip compilation entirely and share one
/// EnduranceReport. A program-level miss feeds through level 1, so the two
/// levels compose: distinct configs sharing a rewrite flavour still share
/// the rewritten graph.
///
/// Thread-safe with single-flight semantics per level: when two workers
/// request the same missing key concurrently, one computes and the other
/// blocks on its result, never duplicating work. Exceptions propagate to
/// every waiter of the entry.
///
/// Optionally backed by a persistent store::DiskStore (attach_store): an
/// in-memory miss then consults the disk tier before computing, and a
/// computed entry is written through, so rewrites and whole compiled
/// programs survive across process invocations. Disk traffic runs inside
/// the single-flight owner, so concurrent workers never load or serialize
/// the same entry twice.
class PipelineCache {
public:
  struct RewriteEntry {
    std::shared_ptr<const mig::Mig> graph;
    mig::RewriteStats stats;
  };

  struct CompiledEntry {
    /// The graph the compiler consumed (the Source's own graph for `none`).
    std::shared_ptr<const mig::Mig> prepared;
    mig::RewriteStats rewrite_stats;
    /// Label-agnostic report (benchmark name left empty — callers patch in
    /// their job label).
    std::shared_ptr<const core::EnduranceReport> report;
  };

  /// Level 1: the rewritten graph for (source fingerprint, rewrite spec),
  /// computing it on a miss. `scratch` (optional) recycles the disk tier's
  /// I/O buffers — flow workers pass their per-worker scratch.
  RewriteEntry rewrite(const Source& source, const util::PolicySpec& spec,
                       store::IoScratch* scratch = nullptr);

  /// Level 2: the compiled program for (source fingerprint,
  /// config.canonical_key()), rewriting (through level 1) and compiling on a
  /// miss. The config is normalized first, so hand-assembled and
  /// parse()/make_config-built configs of equal behavior share one entry.
  CompiledEntry compiled(const Source& source,
                         const core::PipelineConfig& config,
                         store::IoScratch* scratch = nullptr);

  /// Level-1 lookups answered without rewriting / that ran a flow.
  [[nodiscard]] std::size_t hits() const { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const { return misses_.load(); }
  /// How many times the flow registered under `key` actually ran.
  [[nodiscard]] std::size_t rewrites(std::string_view key) const;

  /// Level-2 lookups answered without compiling / that ran the compiler.
  [[nodiscard]] std::size_t program_hits() const {
    return program_hits_.load();
  }
  [[nodiscard]] std::size_t program_misses() const {
    return program_misses_.load();
  }

  /// Attaches (or, with nullptr, detaches) the persistent backing tier.
  /// Not synchronized against in-flight lookups — attach before handing the
  /// cache to workers, the way Service does at construction.
  void attach_store(std::shared_ptr<store::DiskStore> store);
  [[nodiscard]] const std::shared_ptr<store::DiskStore>& disk_store() const {
    return store_;
  }

  void clear();

private:
  struct Key {
    std::uint64_t fingerprint;
    std::string spec;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  std::shared_ptr<store::DiskStore> store_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_future<RewriteEntry>, KeyHash> rewrites_;
  std::unordered_map<Key, std::shared_future<CompiledEntry>, KeyHash>
      programs_;
  std::unordered_map<std::string, std::size_t> rewrites_by_key_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> program_hits_{0};
  std::atomic<std::size_t> program_misses_{0};
};

/// Historical name from when the cache only covered rewrites.
using RewriteCache = PipelineCache;

/// The naive baseline's "rewrite": shares the Source's graph exactly as
/// constructed (no cleanup pass, no cache entry) and mirrors its shape into
/// the stats. Single definition for the cached and uncached execution paths.
[[nodiscard]] PipelineCache::RewriteEntry passthrough_rewrite(
    const Source& source);

}  // namespace rlim::flow
