#include "flow/cache.hpp"

#include "pass/seq.hpp"
#include "store/disk_store.hpp"
#include "util/hash.hpp"

namespace rlim::flow {

std::size_t PipelineCache::KeyHash::operator()(const Key& key) const {
  return static_cast<std::size_t>(
      util::Fnv1a64().u64(key.fingerprint).str(key.spec).digest());
}

PipelineCache::RewriteEntry PipelineCache::rewrite(
    const Source& source, const util::PolicySpec& spec,
    store::IoScratch* scratch) {
  // Normalizing here makes the cache key canonical, so callers may pass
  // partially-specified specs without splitting entries.
  const auto normalized = pass::rewrites().normalize(spec);
  const Key key{source.fingerprint(), normalized.canonical()};

  std::promise<RewriteEntry> promise;
  std::shared_future<RewriteEntry> future;
  bool owner = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = rewrites_.find(key);
    if (it != rewrites_.end()) {
      future = it->second;
      hits_.fetch_add(1);
    } else {
      future = promise.get_future().share();
      rewrites_.emplace(key, future);
      misses_.fetch_add(1);
      owner = true;
    }
  }

  if (owner) {
    bool value_set = false;
    try {
      RewriteEntry entry;
      bool loaded = false;
      if (store_ != nullptr) {
        if (auto payload =
                store_->load_rewrite(key.fingerprint, key.spec, scratch)) {
          entry.graph =
              std::make_shared<const mig::Mig>(std::move(payload->graph));
          entry.stats = payload->stats;
          loaded = true;
        }
      }
      if (!loaded) {
        mig::RewriteStats stats;
        entry.graph = std::make_shared<const mig::Mig>(
            pass::make_rewrite(normalized)(source.original(), &stats));
        entry.stats = stats;
        {
          const std::scoped_lock lock(mutex_);
          ++rewrites_by_key_[normalized.key];
        }
      }
      // Unblock every waiter before the write-through below: the entry is
      // cheap to copy (shared graph) and waiters must not stall on disk.
      promise.set_value(entry);
      value_set = true;
      if (!loaded && store_ != nullptr) {
        store_->store_rewrite(key.fingerprint, key.spec, *entry.graph,
                              entry.stats, scratch);
      }
    } catch (...) {
      // A failure after set_value can only come from the write-through,
      // which is best-effort by contract — the in-memory result stands.
      if (!value_set) {
        promise.set_exception(std::current_exception());
      }
    }
  }
  return future.get();
}

PipelineCache::CompiledEntry PipelineCache::compiled(
    const Source& source, const core::PipelineConfig& raw_config,
    store::IoScratch* scratch) {
  // Normalize (as rewrite() does) so equal-behavior configs share one entry
  // whether they came from parse()/make_config or were hand-assembled.
  const auto config = raw_config.normalized();
  const Key key{source.fingerprint(), config.canonical_key()};

  std::promise<CompiledEntry> promise;
  std::shared_future<CompiledEntry> future;
  bool owner = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = programs_.find(key);
    if (it != programs_.end()) {
      future = it->second;
      program_hits_.fetch_add(1);
    } else {
      future = promise.get_future().share();
      programs_.emplace(key, future);
      program_misses_.fetch_add(1);
      owner = true;
    }
  }

  if (owner) {
    bool value_set = false;
    try {
      CompiledEntry entry;
      bool loaded = false;
      if (store_ != nullptr) {
        if (auto payload = store_->load_program(key.fingerprint, key.spec,
                                                scratch, &config)) {
          entry.prepared =
              std::make_shared<const mig::Mig>(std::move(payload->prepared));
          entry.rewrite_stats = payload->rewrite_stats;
          entry.report = std::make_shared<const core::EnduranceReport>(
              std::move(payload->report));
          loaded = true;
        }
      }
      if (!loaded) {
        auto rewritten = config.rewrite.key == "none"
                             ? passthrough_rewrite(source)
                             : rewrite(source, config.rewrite, scratch);
        entry.prepared = std::move(rewritten.graph);
        entry.rewrite_stats = rewritten.stats;
        entry.report = std::make_shared<const core::EnduranceReport>(
            core::compile_prepared(*entry.prepared, config, {},
                                   source.original().num_gates()));
      }
      // As in rewrite(): waiters get the shared entry before any disk work.
      promise.set_value(entry);
      value_set = true;
      if (!loaded && store_ != nullptr) {
        store_->store_program(key.fingerprint, key.spec, *entry.prepared,
                              entry.rewrite_stats, *entry.report, scratch);
      }
    } catch (...) {
      if (!value_set) {
        promise.set_exception(std::current_exception());
      }
    }
  }
  return future.get();
}

std::size_t PipelineCache::rewrites(std::string_view key) const {
  const std::scoped_lock lock(mutex_);
  const auto it = rewrites_by_key_.find(std::string(key));
  return it == rewrites_by_key_.end() ? 0 : it->second;
}

void PipelineCache::attach_store(std::shared_ptr<store::DiskStore> store) {
  store_ = std::move(store);
}

PipelineCache::RewriteEntry passthrough_rewrite(const Source& source) {
  PipelineCache::RewriteEntry entry;
  entry.graph = source.original_ptr();
  entry.stats.initial_gates = entry.stats.final_gates =
      entry.graph->num_gates();
  entry.stats.initial_complement_edges = entry.stats.final_complement_edges =
      entry.graph->complement_edge_count();
  return entry;
}

void PipelineCache::clear() {
  const std::scoped_lock lock(mutex_);
  rewrites_.clear();
  programs_.clear();
  rewrites_by_key_.clear();
  hits_.store(0);
  misses_.store(0);
  program_hits_.store(0);
  program_misses_.store(0);
}

}  // namespace rlim::flow
