/**
 * @file
 * Content-addressed cache of completed campaigns.
 *
 * A campaign is keyed by `HashCampaignConfig` — the hash over the
 * result-defining configuration fields that the checkpoint machinery
 * already computes — and stored with the same versioned bit-cast-hex
 * shard serialization, so a cache hit restores a `CampaignResult`
 * that is bit-identical to the one a fresh run would produce at any
 * `--threads` setting. Execution knobs (worker count, retry policy,
 * fault injection, checkpoint paths) never participate in the key:
 * two configs that intend the same records share one entry.
 *
 * The cache lives on disk: one checkpoint file per entry in the
 * cache directory, written with the atomic tmp+rename of
 * `SaveCheckpoint`, so a later invocation skips the campaigns
 * entirely. `Store` hands the writer views into the result's own
 * records, one span per shard, so storing copies no series (a record
 * outside its shard's run is a FatalError naming its device); an entry
 * is byte-identical to the final `--checkpoint` snapshot of the same
 * campaign. Every hit is a read of the entry file through
 * `LoadCheckpoint`. No two experiments of one `vrdrepro run --all`
 * share a campaign, so an in-process layer would never hit.
 *
 * Only *complete* campaigns are cached: a result with a quarantined
 * shard is degraded and must be re-attempted, never replayed. A disk
 * entry whose format version or config hash does not match, or that
 * does not parse (an enum field out of range included), raises
 * `FatalError` naming the offending file — silently mixing results
 * from a different configuration is the one failure mode a
 * content-addressed store must never have.
 */
#ifndef VRDDRAM_CORE_CAMPAIGN_CACHE_H
#define VRDDRAM_CORE_CAMPAIGN_CACHE_H

#include <iosfwd>
#include <optional>
#include <string>

#include "core/campaign.h"

namespace vrddram::core {

/// Hit/miss/store counters, surfaced in driver telemetry.
struct CampaignCacheStats {
  std::size_t hits = 0;    ///< lookups served from disk
  std::size_t misses = 0;  ///< lookups that fell through to RunCampaign
  std::size_t stores = 0;  ///< complete results admitted to the cache
};

class CampaignCache {
 public:
  /// `dir` is the on-disk entry directory; it must be non-empty
  /// (FatalError otherwise) and is created lazily on the first Store.
  explicit CampaignCache(std::string dir);

  /**
   * Return the cached result for `config`, or nullopt on a miss.
   * Entries are validated (format version, config hash, one
   * entry per shard, no quarantined shards) before use; a version or
   * hash mismatch or an unparsable entry raises FatalError naming the
   * file, while an incomplete entry is treated as a miss.
   */
  std::optional<CampaignResult> Lookup(const CampaignConfig& config);

  /**
   * Admit a completed campaign. Results with quarantined shards are
   * rejected (returns false): they are degraded, and a resumed or
   * retried campaign must be able to re-attempt the missing shards.
   * `result.records` must hold each shard's records contiguous, in
   * shard order, as RunCampaign and Lookup return them.
   */
  bool Store(const CampaignConfig& config, const CampaignResult& result);

  /// Path of the disk entry for `config`.
  std::string EntryPath(const CampaignConfig& config) const;

  const CampaignCacheStats& stats() const { return stats_; }

 private:
  std::string dir_;
  CampaignCacheStats stats_;
};

/**
 * Run `config` through `cache`: a hit returns the stored result
 * without executing anything; a miss runs `RunCampaign` and admits
 * the result. `cache == nullptr` degrades to a plain `RunCampaign`
 * (the driver's path without `--cache_dir`, or with `--no-cache`).
 * `telemetry` (optional) receives one `campaign-cache:` line per
 * lookup — hit/miss, the 16-hex-digit key, and where the entry came
 * from or went.
 */
CampaignResult RunCampaignCached(const CampaignConfig& config,
                                 CampaignCache* cache,
                                 std::ostream* telemetry = nullptr,
                                 std::ostream* progress = nullptr);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_CAMPAIGN_CACHE_H
