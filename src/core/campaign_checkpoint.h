/**
 * @file
 * Versioned on-disk checkpointing for campaign shards.
 *
 * A checkpoint is a plain-text snapshot of every *completed* (ok or
 * retried) shard of a campaign: its `ShardStatus` plus the full
 * `SeriesRecord`s it produced. Quarantined shards are deliberately
 * not stored, so resuming re-attempts them.
 *
 * The file starts with a format version and a hash of the campaign
 * configuration (the fields that define the intended results —
 * devices, rows, measurements, patterns, tAggOn levels, temperatures,
 * scan width, base seed, thermal-rig mode). Execution knobs (threads,
 * retry/quarantine policy, fault injection, checkpoint paths) are
 * excluded: they change how shards run, never what a completed shard
 * records. Loading rejects a version or config-hash mismatch with
 * FatalError rather than silently mixing incompatible results.
 *
 * One writer serves both callers and copies no record: it takes
 * `ShardView`s into the records where they live (`RunCampaign`'s
 * per-shard buffers, a cached `CampaignResult`). One loader reads a
 * file back and checks its config hash.
 *
 * Floating-point fields are serialized as bit-cast hexadecimal, so a
 * resumed campaign is bit-identical to an uninterrupted one. An enum
 * field out of its declared range is a FatalError, never a cast.
 *
 * Each record is a header line ending in its series length, then the
 * series on one line: decimal values separated by single spaces. The
 * series line is formatted with std::to_chars into one reused buffer
 * and parsed back with std::from_chars, since it holds nearly all of a
 * cache entry's bytes; a line with more or fewer values than its count
 * is a FatalError. tests/core/testdata/golden.ckpt pins the bytes.
 */
#ifndef VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H
#define VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace vrddram::core {

/// A checkpoint as read back from disk, owning its records.
struct CampaignCheckpoint {
  /// Bump when the on-disk grammar changes incompatibly.
  static constexpr std::uint32_t kFormatVersion = 1;

  struct ShardEntry {
    std::size_t index = 0;  ///< position in the canonical shard order
    ShardStatus status;
    std::vector<SeriesRecord> records;
  };

  std::uint64_t config_hash = 0;
  /// Sorted by `index`; at most one entry per shard.
  std::vector<ShardEntry> shards;
};

/// One shard as the writer stores it, viewing the caller's data.
struct ShardView {
  std::size_t index;  ///< position in the canonical shard order
  const ShardStatus& status;
  std::span<const SeriesRecord> records;
};

/// A config hash (or a double's bits) as 16 zero-padded hex digits.
std::string Hex16(std::uint64_t value);

/// Hash of the result-defining configuration fields (see file docs).
std::uint64_t HashCampaignConfig(const CampaignConfig& config);

/// Serialize (`shards` in ascending `index`) / parse the checkpoint
/// grammar. Parse errors and stream failures raise FatalError.
void WriteCheckpoint(std::ostream& os, std::uint64_t config_hash,
                     std::span<const ShardView> shards);
CampaignCheckpoint ReadCheckpoint(std::istream& is);

/**
 * Atomically persist a checkpoint to `path`: the snapshot is written
 * to `path + ".tmp"` and renamed over the target, so a crash mid-save
 * leaves either the previous checkpoint or the new one, never a
 * truncated file. Raises FatalError on I/O failure.
 */
void SaveCheckpoint(const std::string& path, std::uint64_t config_hash,
                    std::span<const ShardView> shards);

/**
 * Load the checkpoint at `path`; nullopt when the file does not exist
 * (nothing to resume). Malformed content, a format-version mismatch
 * and a config hash other than `expected_config_hash` raise FatalError
 * naming `path`, so a stale `--resume` file or a foreign cache entry
 * is always attributable.
 */
std::optional<CampaignCheckpoint> LoadCheckpoint(
    const std::string& path, std::uint64_t expected_config_hash);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H
