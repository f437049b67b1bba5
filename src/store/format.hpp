#pragma once

#include <cstdint>
#include <string_view>

namespace rlim::store {

/// First bytes of every store entry file.
inline constexpr std::string_view kMagic = "RLIM";

/// On-disk format version. Bump whenever any serialized structure changes
/// (Mig, Program, EnduranceReport, entry framing, ...); readers treat any
/// other version as a miss and evict the entry, so sweeps transparently
/// recompute after an upgrade instead of decoding stale bytes.
/// v2: MIG and Program payloads moved to the mmap-friendly sectioned layout
/// (header of counts + bulk little-endian sections), the frame trailer
/// switched to the 8-byte-lane FNV variant, and the MIG fingerprint to the
/// u32-lane variant — v1 entries are evicted and recomputed on first touch.
/// v3: EnduranceReport gained the optional Monte-Carlo fault-sweep block
/// (u8 presence flag + fault::LifetimeDistribution).
/// v4: RewriteStats gained the per-pass telemetry breakdown
/// (count-prefixed list of named PassStats records).
/// v5: no store payload layout changed, but flow::wire v5 (JobSpec
/// priority/deadline, StatsReply scheduler gauges) bumped in lockstep —
/// v4 entries are evicted and recomputed on first touch. Since then the
/// two versions move together only when a layout they share changes
/// (flow::wire v6 reshaped the Stats payload and left this at 5).
inline constexpr std::uint32_t kFormatVersion = 5;

/// What an entry file holds. Part of the content address, so the two cache
/// levels never alias even for equal (fingerprint, key) pairs.
enum class EntryKind : std::uint8_t {
  Rewrite = 1,  ///< rewritten MIG + RewriteStats (cache level 1)
  Program = 2,  ///< prepared MIG + stats + compiled EnduranceReport (level 2)
};

[[nodiscard]] constexpr std::string_view to_string(EntryKind kind) {
  return kind == EntryKind::Rewrite ? "rewrite" : "program";
}

}  // namespace rlim::store
