/**
 * Content-addressed campaign cache tests: a warm lookup returns the
 * exact records a fresh run produces (at any worker count), entries
 * reuse the checkpoint grammar on disk, and incompatible or corrupted
 * entries — wrong format version, foreign config hash, absurd counts —
 * refuse to load with a FatalError naming the offending file for both
 * `--resume` and cache lookups.
 */
#include "core/campaign_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/campaign.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::core {
namespace {

CampaignConfig TinyConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 2;
  config.measurements = 10;
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 32;
  config.threads = 1;
  return config;
}

std::string TempCacheDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("vrddram_cache_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectResultsIdentical(const CampaignResult& expected,
                            const CampaignResult& actual,
                            const std::string& context) {
  ASSERT_EQ(expected.records.size(), actual.records.size()) << context;
  for (std::size_t i = 0; i < expected.records.size(); ++i) {
    const SeriesRecord& a = expected.records[i];
    const SeriesRecord& b = actual.records[i];
    EXPECT_EQ(a.device, b.device) << context << " record " << i;
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.pattern, b.pattern);
    EXPECT_EQ(a.t_on, b.t_on);
    EXPECT_EQ(a.temperature, b.temperature);
    EXPECT_EQ(a.rdt_guess, b.rdt_guess);
    ASSERT_EQ(a.series, b.series) << context << " record " << i;
  }
  ASSERT_EQ(expected.shards.size(), actual.shards.size()) << context;
  for (std::size_t i = 0; i < expected.shards.size(); ++i) {
    EXPECT_EQ(expected.shards[i].device, actual.shards[i].device);
    EXPECT_EQ(expected.shards[i].temperature,
              actual.shards[i].temperature);
    EXPECT_EQ(expected.shards[i].state, actual.shards[i].state);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(CampaignCacheTest, LookupAfterStoreIsServedFromDisk) {
  EXPECT_THROW(CampaignCache(""), FatalError);  // the cache needs a disk
  const std::string dir = TempCacheDir("same_instance");
  CampaignCache cache(dir);
  const CampaignConfig config = TinyConfig();
  EXPECT_FALSE(cache.Lookup(config).has_value());

  const CampaignResult fresh = RunCampaign(config);
  EXPECT_TRUE(cache.Store(config, fresh));

  // The same instance holds nothing in memory: the hit is the entry
  // read back from disk, so every shard is marked as restored.
  const auto cached = cache.Lookup(config);
  ASSERT_TRUE(cached.has_value());
  ExpectResultsIdentical(fresh, *cached, "same instance");
  for (const ShardStatus& shard : cached->shards) {
    EXPECT_TRUE(shard.from_checkpoint);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, DiskEntrySurvivesANewCacheInstance) {
  const std::string dir = TempCacheDir("disk");
  const CampaignConfig config = TinyConfig();
  CampaignResult fresh;
  {
    CampaignCache cache(dir);
    fresh = RunCampaign(config);
    ASSERT_TRUE(cache.Store(config, fresh));
    ASSERT_TRUE(std::filesystem::exists(cache.EntryPath(config)));
  }
  CampaignCache reopened(dir);
  const auto cached = reopened.Lookup(config);
  ASSERT_TRUE(cached.has_value());
  ExpectResultsIdentical(fresh, *cached, "disk cache");
  for (const ShardStatus& shard : cached->shards) {
    EXPECT_TRUE(shard.from_checkpoint);
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, RunCampaignCachedHitMatchesFreshAtAnyThreads) {
  const std::string dir = TempCacheDir("threads");
  CampaignConfig cold = TinyConfig();
  cold.threads = 1;
  CampaignConfig warm = TinyConfig();
  warm.threads = 8;  // execution knob: same cache key, same bytes

  CampaignCache cache(dir);
  std::ostringstream telemetry;
  const CampaignResult first =
      RunCampaignCached(cold, &cache, &telemetry);
  const CampaignResult second =
      RunCampaignCached(warm, &cache, &telemetry);
  ExpectResultsIdentical(first, second, "threads 1 vs 8");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_NE(telemetry.str().find("campaign-cache: miss"),
            std::string::npos);
  EXPECT_NE(telemetry.str().find("campaign-cache: hit"),
            std::string::npos);

  // A cache-less call is exactly a fresh run.
  const CampaignResult plain = RunCampaignCached(cold, nullptr);
  ExpectResultsIdentical(plain, first, "no cache vs cold");
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, DifferentConfigsUseDifferentEntries) {
  const std::string dir = TempCacheDir("different");
  CampaignCache cache(dir);
  const CampaignConfig config = TinyConfig();
  CampaignConfig other = TinyConfig();
  other.measurements += 1;
  EXPECT_NE(cache.EntryPath(config), cache.EntryPath(other));
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));
  EXPECT_FALSE(cache.Lookup(other).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, RefusesToStoreQuarantinedCampaigns) {
  const std::string dir = TempCacheDir("quarantined");
  CampaignCache cache(dir);
  const CampaignConfig config = TinyConfig();
  CampaignResult partial = RunCampaign(config);
  partial.shards.back().state = ShardState::kQuarantined;
  EXPECT_FALSE(cache.Store(config, partial));
  EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(config)));
  EXPECT_FALSE(cache.Lookup(config).has_value());
  EXPECT_EQ(cache.stats().stores, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, EntryIsByteIdenticalToTheFinalCheckpoint) {
  // --checkpoint snapshots and cache entries share one writer: once
  // every shard has completed, the snapshot RunCampaign left behind is
  // the entry Store writes, byte for byte. S2@80 fails once and is
  // retried; with no data pattern, every shard completes with no
  // records (no shard of a measuring campaign ever does).
  CampaignConfig measuring = TinyConfig();
  CampaignConfig recording_nothing = TinyConfig();
  recording_nothing.patterns.clear();
  for (CampaignConfig config : {measuring, recording_nothing}) {
    const std::string dir = TempCacheDir("one_writer");
    std::filesystem::create_directories(dir);
    config.threads = 2;
    config.inject = "core.campaign.shard:p=1,attempt_lt=1,match=S2@80";
    config.checkpoint_path = dir + "/snapshot.ckpt";
    const CampaignResult result = RunCampaign(config);
    EXPECT_EQ(result.records.empty(), config.patterns.empty());
    ASSERT_EQ(result.shards.size(), 4u);
    EXPECT_EQ(result.shards[3].state, ShardState::kRetried);
    EXPECT_FALSE(result.shards[3].error.empty());

    CampaignCache cache(dir);
    ASSERT_TRUE(cache.Store(config, result));
    const std::string snapshot = ReadFile(config.checkpoint_path);
    EXPECT_NE(snapshot.find("\nshards 4\n"), std::string::npos);
    EXPECT_EQ(snapshot, ReadFile(cache.EntryPath(config)));
    std::filesystem::remove_all(dir);
  }
}

TEST(CampaignCacheTest, StoreRejectsRecordsOutOfShardOrderNamingDevice) {
  // Store slices each shard's records out of the flat list, so a record
  // that does not sit in its shard's run is a FatalError naming its
  // device, raised before anything is written.
  const std::string dir = TempCacheDir("out_of_order");
  const CampaignConfig config = TinyConfig();
  const CampaignResult fresh = RunCampaign(config);
  ASSERT_EQ(fresh.records.front().device, "M1");
  ASSERT_EQ(fresh.records.back().device, "S2");

  CampaignResult moved = fresh;  // an M1@50 series after S2@80's
  std::rotate(moved.records.begin(), moved.records.begin() + 1,
              moved.records.end());
  CampaignResult foreign = fresh;  // a series no shard of it ran
  foreign.records.push_back(fresh.records.front());
  foreign.records.back().device = "H0";
  for (const auto& [result, device] :
       {std::pair{&moved, "M1"}, std::pair{&foreign, "H0"}}) {
    SCOPED_TRACE(device);
    CampaignCache cache(dir);
    try {
      cache.Store(config, *result);
      FAIL() << "expected FatalError for a record out of shard order";
    } catch (const FatalError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("record for " + std::string(device)),
                std::string::npos)
          << what;
    }
    EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(config)));
    EXPECT_FALSE(std::filesystem::exists(cache.EntryPath(config) + ".tmp"));
    EXPECT_EQ(cache.stats().stores, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, PartialEntryIsAMissNotAnError) {
  const std::string dir = TempCacheDir("partial");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  const CampaignResult fresh = RunCampaign(config);
  ASSERT_TRUE(cache.Store(config, fresh));

  // Truncate the entry to fewer shards than the campaign defines —
  // as an interrupted checkpoint would be. A fresh cache must treat
  // that as a miss, not serve half a campaign.
  const std::uint64_t hash = HashCampaignConfig(config);
  const std::optional<CampaignCheckpoint> checkpoint =
      LoadCheckpoint(cache.EntryPath(config), hash);
  ASSERT_TRUE(checkpoint.has_value());
  std::vector<ShardView> views;
  for (const CampaignCheckpoint::ShardEntry& entry : checkpoint->shards) {
    views.push_back(ShardView{entry.index, entry.status, entry.records});
  }
  views.pop_back();
  SaveCheckpoint(cache.EntryPath(config), hash, views);

  CampaignCache reopened(dir);
  EXPECT_FALSE(reopened.Lookup(config).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, LookupRejectsForeignConfigHashNamingTheFile) {
  const std::string dir = TempCacheDir("foreign");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));

  // Masquerade the entry as belonging to a different configuration by
  // copying it over that configuration's entry path.
  CampaignConfig other = TinyConfig();
  other.measurements += 1;
  const std::string other_path = cache.EntryPath(other);
  std::filesystem::copy_file(cache.EntryPath(config), other_path);

  CampaignCache reopened(dir);
  try {
    reopened.Lookup(other);
    FAIL() << "expected FatalError for a foreign cache entry";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(other_path), std::string::npos) << what;
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

/// Replaces the last token of the first line of `text` that starts
/// with `prefix` (a count field of the checkpoint grammar; the magic
/// line always comes first, so no count sits on line one).
std::string WithFirstCount(const std::string& text,
                           const std::string& prefix,
                           const std::string& value) {
  const std::size_t line = text.find("\n" + prefix);
  EXPECT_NE(line, std::string::npos) << prefix;
  if (line == std::string::npos) {
    return text;
  }
  const std::size_t end = text.find('\n', line + 1);
  const std::size_t last_space = text.rfind(' ', end);
  return text.substr(0, last_space + 1) + value + text.substr(end);
}

TEST(CampaignCacheTest, LookupRejectsAbsurdCountsNamingTheFile) {
  const std::string dir = TempCacheDir("counts");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));
  const std::string path = cache.EntryPath(config);
  std::string original;
  {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    original = text.str();
  }

  // Every count the reader takes from the file, set far beyond what
  // the file holds or memory could: the reader must run out of tokens
  // and raise a typed error, not reserve the count up front.
  const std::pair<const char*, const char*> cases[] = {
      {"shards ", "1152921504606846976"},
      {"records ", "1152921504606846976"},
      {"record ", "1099511627776"},
      {"records ", "18446744073709551615"},
  };
  for (const auto& [field, value] : cases) {
    SCOPED_TRACE(std::string(field) + value);
    {
      std::ofstream file(path, std::ios::trunc);
      file << WithFirstCount(original, field, value);
    }
    CampaignCache reopened(dir);
    try {
      reopened.Lookup(config);
      FAIL() << "expected FatalError for a corrupted count";
    } catch (const FatalError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, LookupRejectsVersionMismatchNamingTheFile) {
  const std::string dir = TempCacheDir("version");
  const CampaignConfig config = TinyConfig();
  CampaignCache cache(dir);
  const std::string path = cache.EntryPath(config);
  std::filesystem::create_directories(dir);
  {
    std::ofstream file(path, std::ios::trunc);
    file << "vrddram-campaign-checkpoint 999\n"
         << "config 0000000000000000\nshards 0\nend\n";
  }
  try {
    cache.Lookup(config);
    FAIL() << "expected FatalError for a future format version";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(CampaignCacheTest, ResumeRejectionsNameTheCheckpointFile) {
  // The same two rejection paths, exercised through --resume.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_cache_resume.ckpt")
          .string();
  std::filesystem::remove(path);

  CampaignConfig first = TinyConfig();
  first.checkpoint_path = path;
  RunCampaign(first);

  CampaignConfig different = TinyConfig();
  different.measurements += 5;
  different.checkpoint_path = path;
  different.resume = true;
  try {
    RunCampaign(different);
    FAIL() << "expected FatalError for a config-hash mismatch";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("does not match"), std::string::npos) << what;
  }

  {
    std::ofstream file(path, std::ios::trunc);
    file << "vrddram-campaign-checkpoint 999\n"
         << "config 0000000000000000\nshards 0\nend\n";
  }
  CampaignConfig stale = TinyConfig();
  stale.checkpoint_path = path;
  stale.resume = true;
  try {
    RunCampaign(stale);
    FAIL() << "expected FatalError for a format-version mismatch";
  } catch (const FatalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("version"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vrddram::core
