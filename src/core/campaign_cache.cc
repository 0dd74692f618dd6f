#include "core/campaign_cache.h"

#include <filesystem>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::core {

namespace {

CampaignResult FromCheckpoint(CampaignCheckpoint&& checkpoint) {
  CampaignResult result;
  for (CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
    for (SeriesRecord& record : entry.records) {
      result.records.push_back(std::move(record));
    }
    result.shards.push_back(std::move(entry.status));
  }
  return result;
}

}  // namespace

CampaignCache::CampaignCache(std::string dir) : dir_(std::move(dir)) {
  VRD_FATAL_IF(dir_.empty(), "campaign-cache: empty cache directory");
}

std::string CampaignCache::EntryPath(
    const CampaignConfig& config) const {
  return (std::filesystem::path(dir_) /
          ("campaign-" + Hex16(HashCampaignConfig(config)) + ".ckpt"))
      .string();
}

std::optional<CampaignResult> CampaignCache::Lookup(
    const CampaignConfig& config) {
  if (std::optional<CampaignCheckpoint> checkpoint =
          LoadCheckpoint(EntryPath(config), HashCampaignConfig(config))) {
    // A valid entry must cover every shard of the campaign exactly
    // once (quarantined shards are never serialized). Anything less
    // is a foreign or partial file: fall through to a fresh run.
    const std::size_t expected =
        config.devices.size() * config.temperatures.size();
    bool complete = checkpoint->shards.size() == expected;
    for (std::size_t i = 0; complete && i < checkpoint->shards.size();
         ++i) {
      complete = checkpoint->shards[i].index == i;
    }
    if (complete) {
      ++stats_.hits;
      return FromCheckpoint(std::move(*checkpoint));
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

bool CampaignCache::Store(const CampaignConfig& config,
                          const CampaignResult& result) {
  // RunCampaign's merge and FromCheckpoint both keep each shard's
  // records contiguous in canonical shard order, so a shard's records
  // are the next run of records carrying its (device, temperature).
  const std::span<const SeriesRecord> records = result.records;
  std::vector<ShardView> views;
  std::size_t next = 0;
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    const ShardStatus& status = result.shards[i];
    if (status.state == ShardState::kQuarantined) {
      return false;  // degraded: never cached
    }
    const std::size_t begin = next;
    while (next < records.size() &&
           records[next].device == status.device &&
           records[next].temperature == status.temperature) {
      ++next;
    }
    views.push_back(
        ShardView{i, status, records.subspan(begin, next - begin)});
  }
  if (views.empty()) {
    return false;
  }
  VRD_FATAL_IF(next != records.size(),
               "campaign-cache: record for " + records[next].device +
                   " is out of shard order in the result being stored");
  std::filesystem::create_directories(dir_);
  SaveCheckpoint(EntryPath(config), HashCampaignConfig(config), views);
  ++stats_.stores;
  return true;
}

CampaignResult RunCampaignCached(const CampaignConfig& config,
                                 CampaignCache* cache,
                                 std::ostream* telemetry,
                                 std::ostream* progress) {
  if (cache == nullptr) {
    return RunCampaign(config, progress);
  }
  const std::string key = Hex16(HashCampaignConfig(config));
  if (std::optional<CampaignResult> result = cache->Lookup(config)) {
    if (telemetry != nullptr) {
      *telemetry << "campaign-cache: hit " << key << " ("
                 << result->records.size() << " series, "
                 << result->shards.size() << " shards)\n";
    }
    return *std::move(result);
  }
  if (telemetry != nullptr) {
    *telemetry << "campaign-cache: miss " << key
               << ": executing campaign\n";
  }
  CampaignResult result = RunCampaign(config, progress);
  if (cache->Store(config, result)) {
    if (telemetry != nullptr) {
      *telemetry << "campaign-cache: stored " << key << '\n';
    }
  } else if (telemetry != nullptr) {
    *telemetry << "campaign-cache: not cached " << key
               << " (campaign has quarantined shards)\n";
  }
  return result;
}

}  // namespace vrddram::core
