#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "store/format.hpp"
#include "store/serialize.hpp"
#include "util/mmap_file.hpp"

namespace rlim::store {

/// Outcome of reading one entry file, before payload decoding.
enum class EntryStatus {
  Ok,               ///< frame intact, version current
  Missing,          ///< file absent or unopenable (e.g. unlinked by a
                    ///< concurrent gc) — a plain miss, not damage
  Corrupt,          ///< misframed: short file, bad magic/kind, bad framing
  HashMismatch,     ///< framing intact but the whole-frame integrity hash
                    ///< disagrees (bit rot / torn bytes)
  VersionMismatch,  ///< intact frame written by another format version
};

/// Per-worker recyclable I/O buffers. Callers that serve many jobs (the
/// flow::Service worker pool) own one per worker and pass it down through
/// every load/store, so steady-state traffic reuses two buffers instead of
/// allocating per entry. Always optional: nullptr means one-shot buffers.
struct IoScratch {
  std::string read_buffer;   ///< mmap-fallback / plain file reads
  std::string write_buffer;  ///< frame encoding for write-throughs
};

/// Decoded entry frame header with *borrowed* key/payload views — valid only
/// while the backing MmapFile (or scratch buffer) lives. The zero-copy read
/// path: payload decoding happens straight out of the mapping.
struct EntryView {
  EntryKind kind = EntryKind::Rewrite;
  std::uint64_t fingerprint = 0;
  std::string_view key;
  std::string_view payload;
};

/// Decoded entry frame with owned storage (the Gc maintenance walk, which
/// outlives any mapping).
struct EntryFrame {
  EntryKind kind = EntryKind::Rewrite;
  std::uint64_t fingerprint = 0;
  std::string key;
  std::string payload;
};

/// Maps (or, on fallback platforms, reads) one entry file and authenticates
/// it: existence, magic, integrity hash over every framed byte, version.
/// On Ok, `view` borrows from `file` — keep `file` alive while using it.
/// Shared by DiskStore lookups and the `rlim cache verify` walk. Does not
/// decode the payload.
[[nodiscard]] EntryStatus read_entry_view(const std::filesystem::path& path,
                                          util::MmapFile& file,
                                          EntryView& view,
                                          std::string* scratch = nullptr);

/// Owning convenience wrapper over read_entry_view.
[[nodiscard]] EntryStatus read_entry_file(const std::filesystem::path& path,
                                          EntryFrame& frame);

/// Where a store keeps its entry files: `<root>/objects/<aa>/<hash16>.entry`.
[[nodiscard]] std::filesystem::path objects_dir(
    const std::filesystem::path& root);

/// Best-effort unlink (shared by store lookups and Gc maintenance): a
/// missing or busy file is fine — the next reader treats it as a miss.
/// Returns whether a file was actually removed.
bool remove_quietly(const std::filesystem::path& path);

/// File name (sans directory) of an entry: 16 hex chars of the FNV-1a hash
/// over (kind, fingerprint, key), plus ".entry".
[[nodiscard]] std::string entry_file_name(EntryKind kind,
                                          std::uint64_t fingerprint,
                                          std::string_view key);

/// Monotonic counters of one DiskStore's lifetime (all reads/writes since
/// construction — i.e. per process invocation).
struct StoreCounters {
  std::size_t rewrite_loads = 0;    ///< level-1 entries served from disk
  std::size_t program_loads = 0;    ///< level-2 entries served from disk
  std::size_t load_misses = 0;      ///< lookups with no usable entry
  std::size_t stores = 0;           ///< entries written through
  std::size_t store_failures = 0;   ///< write-throughs that failed (ignored)
  std::size_t evicted_corrupt = 0;  ///< damaged entries deleted on read
  std::size_t evicted_version = 0;  ///< other-version entries deleted on read
};

/// Persistent, content-addressed backing tier for flow::PipelineCache.
///
/// Layout: entries live under `<root>/objects/` sharded by the first hex
/// byte of their content address, so directories stay small at millions of
/// entries. Every file is written to `<root>/tmp/` first and renamed into
/// place — readers are lock-free and either see a complete entry or none.
/// Each entry carries a format-version header and an integrity hash over
/// the whole frame; anything that fails authentication or decoding is
/// evicted and reported as a miss, so the worst corruption costs exactly
/// one recompute.
///
/// Reads are mmap-backed (util::MmapFile): a lookup is map + validate +
/// bulk copy into the arena, with no intermediate payload buffer. That
/// is safe precisely because of the tmp+rename write discipline — a mapped
/// entry file is never mutated in place.
///
/// Thread-safe: lookups and write-throughs may run concurrently from any
/// number of Service workers (and any number of processes sharing the root).
class DiskStore {
public:
  /// Creates the directory skeleton. Throws rlim::Error only when the
  /// directory can neither be created nor read; a readable store this
  /// process cannot write to (seeded cache on a read-only mount) degrades
  /// to read-through, with every skipped write counted as a failure.
  /// Writability itself is probed lazily on the first write (or writable()
  /// call), so read-only consumers never pay for a probe file.
  explicit DiskStore(std::filesystem::path root);

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }
  /// False when the store serves read-through only (root not writable).
  /// First call probes by writing and removing a temp file.
  [[nodiscard]] bool writable() const;

  /// Level-1 lookup: the rewritten graph for (fingerprint, canonical
  /// rewrite-spec key), or nullopt on miss/corruption.
  [[nodiscard]] std::optional<RewritePayload> load_rewrite(
      std::uint64_t fingerprint, const std::string& key,
      IoScratch* scratch = nullptr);

  /// Level-2 lookup: the compiled entry for (fingerprint, canonical config
  /// key), or nullopt on miss/corruption. When the caller already holds the
  /// parsed config whose canonical key is `key`, passing it skips the
  /// per-load config re-parse inside the report decode.
  [[nodiscard]] std::optional<ProgramPayload> load_program(
      std::uint64_t fingerprint, const std::string& key,
      IoScratch* scratch = nullptr,
      const core::PipelineConfig* config = nullptr);

  /// Write-through of a freshly computed level-1 entry. Failures (disk
  /// full, permissions) are swallowed and counted: the cache tier must
  /// never fail the pipeline. Returns whether the entry landed.
  bool store_rewrite(std::uint64_t fingerprint, const std::string& key,
                     const mig::Mig& graph, const mig::RewriteStats& stats,
                     IoScratch* scratch = nullptr);

  /// Write-through of a freshly computed level-2 entry.
  bool store_program(std::uint64_t fingerprint, const std::string& key,
                     const mig::Mig& prepared,
                     const mig::RewriteStats& rewrite_stats,
                     const core::EnduranceReport& report,
                     IoScratch* scratch = nullptr);

  [[nodiscard]] StoreCounters counters() const;

private:
  [[nodiscard]] std::filesystem::path entry_path(
      EntryKind kind, std::uint64_t fingerprint, const std::string& key) const;
  /// Shared lookup bookkeeping: reads + authenticates the entry, evicts on
  /// damage, checks the header against the requested address. On true,
  /// `view.payload` (borrowed from `file`) is ready to decode.
  bool load_entry_view(EntryKind kind, std::uint64_t fingerprint,
                       const std::string& key,
                       const std::filesystem::path& path, util::MmapFile& file,
                       EntryView& view, IoScratch* scratch);
  template <typename EncodePayload>
  bool write_entry(EntryKind kind, std::uint64_t fingerprint,
                   const std::string& key, IoScratch* scratch,
                   EncodePayload&& encode_payload);

  std::filesystem::path root_;
  /// Lazily-resolved writability: unknown until the first probe.
  enum : int { kWritableUnknown = -1, kReadOnly = 0, kWritable = 1 };
  mutable std::atomic<int> writable_state_{kWritableUnknown};
  std::atomic<std::size_t> rewrite_loads_{0};
  std::atomic<std::size_t> program_loads_{0};
  std::atomic<std::size_t> load_misses_{0};
  std::atomic<std::size_t> stores_{0};
  std::atomic<std::size_t> store_failures_{0};
  std::atomic<std::size_t> evicted_corrupt_{0};
  std::atomic<std::size_t> evicted_version_{0};
};

/// The RLIM_CACHE_DIR environment default (empty when unset). CLI
/// `--cache-dir` takes precedence over this; an empty result everywhere
/// means the disk tier stays off.
[[nodiscard]] std::string env_cache_dir();

}  // namespace rlim::store
