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
 * Floating-point fields are serialized as bit-cast hexadecimal, so a
 * resumed campaign is bit-identical to an uninterrupted one.
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
#include <string>
#include <vector>

#include "core/campaign.h"

namespace vrddram::core {

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

/// Hash of the result-defining configuration fields (see file docs).
std::uint64_t HashCampaignConfig(const CampaignConfig& config);

/// Serialize / parse the checkpoint grammar. Parse errors and stream
/// failures raise FatalError.
void WriteCheckpoint(std::ostream& os, const CampaignCheckpoint& checkpoint);
CampaignCheckpoint ReadCheckpoint(std::istream& is);

/**
 * Atomically persist `checkpoint` to `path`: the snapshot is written
 * to `path + ".tmp"` and renamed over the target, so a crash mid-save
 * leaves either the previous checkpoint or the new one, never a
 * truncated file. Raises FatalError on I/O failure.
 */
void SaveCheckpoint(const std::string& path,
                    const CampaignCheckpoint& checkpoint);

/**
 * Load the checkpoint at `path` into `out`. Returns false (leaving
 * `out` untouched) when the file does not exist — the "nothing to
 * resume" case. Malformed content raises FatalError.
 */
bool LoadCheckpoint(const std::string& path, CampaignCheckpoint* out);

/**
 * LoadCheckpoint, then verify the stored config hash matches
 * `expected_config_hash`. Both rejection paths — format-version
 * mismatch and config-hash mismatch — raise FatalError naming `path`,
 * so a stale `--resume` file or a foreign cache entry is always
 * attributable. Returns false when the file does not exist.
 */
bool LoadCheckpointFor(const std::string& path,
                       std::uint64_t expected_config_hash,
                       CampaignCheckpoint* out);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_CHECKPOINT_H
