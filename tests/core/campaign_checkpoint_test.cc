/**
 * Checkpoint grammar tests: the writer reproduces a committed golden
 * file byte for byte (so the on-disk format never drifts), the reader
 * round-trips it, and a seeded mutation run over a real cache entry
 * (truncations, byte flips, inflated counts, series lines with too many
 * or too few values, out-of-range enum fields) ends every input in a
 * parse with valid fields, a cache miss, or a FatalError naming the
 * file.
 */
#include "core/campaign_checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/campaign.h"
#include "core/campaign_cache.h"
#include "core/rdt_profiler.h"
#include "dram/timing.h"
#include "dram/types.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {
namespace {

/// The checkpoint stored in testdata/golden.ckpt: series holding the
/// no-flip sentinel, 0 and both int64 extremes, an empty series, a
/// retried shard with a free-text error and a shard with no records.
CampaignCheckpoint GoldenCheckpoint() {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  SeriesRecord m1;
  m1.device = "M1";
  m1.mfr = vrd::Manufacturer::kMfrM;
  m1.standard = dram::Standard::kDdr4;
  m1.density_gbit = 8;
  m1.die_rev = 'B';
  m1.row = 1234;
  m1.pattern = dram::DataPattern::kCheckered0;
  m1.t_on = TOnChoice::kMinTras;
  m1.temperature = 50.0;
  m1.rdt_guess = 20000;
  m1.series = {kNoFlip, 0, kMax, kMin, 19876, 7};
  SeriesRecord m1_empty = m1;
  m1_empty.row = 1235;
  m1_empty.series.clear();
  SeriesRecord s2;
  s2.device = "S2";
  s2.mfr = vrd::Manufacturer::kMfrS;
  s2.standard = dram::Standard::kDdr5;
  s2.density_gbit = 16;
  s2.die_rev = 'A';
  s2.row = 65535;
  s2.pattern = dram::DataPattern::kRowstripe1;
  s2.t_on = TOnChoice::kNineTrefi;
  s2.temperature = 80.0;
  s2.rdt_guess = 0;
  s2.series = {1, 2, 3};

  CampaignCheckpoint checkpoint;
  checkpoint.config_hash = 0x0123456789abcdefull;
  CampaignCheckpoint::ShardEntry first;
  first.index = 0;
  first.status.device = "M1";
  first.status.temperature = 50.0;
  first.records = {m1, m1_empty};
  CampaignCheckpoint::ShardEntry second;
  second.index = 1;
  second.status.device = "S2";
  second.status.temperature = 80.0;
  second.status.state = ShardState::kRetried;
  second.status.attempts = 3;
  second.status.backoff_ticks = 12;
  second.status.error = "injected fault: transient bank error";
  second.records = {s2};
  CampaignCheckpoint::ShardEntry third;
  third.index = 2;
  third.status.device = "Chip0";
  third.status.temperature = 85.5;
  checkpoint.shards = {first, second, third};
  return checkpoint;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
}

std::string GoldenText() {
  return ReadFile(std::string(VRD_TESTDATA_DIR) + "/golden.ckpt");
}

/// Views of every shard of an owning checkpoint, as the writer takes.
std::vector<ShardView> ViewsOf(const CampaignCheckpoint& checkpoint) {
  std::vector<ShardView> views;
  for (const CampaignCheckpoint::ShardEntry& entry : checkpoint.shards) {
    views.push_back(ShardView{entry.index, entry.status, entry.records});
  }
  return views;
}

std::string Serialize(const CampaignCheckpoint& checkpoint) {
  std::ostringstream os;
  WriteCheckpoint(os, checkpoint.config_hash, ViewsOf(checkpoint));
  return os.str();
}

TEST(CampaignCheckpointTest, WriterReproducesGoldenFileByteForByte) {
  const std::string golden = GoldenText();
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(Serialize(GoldenCheckpoint()), golden);
}

TEST(CampaignCheckpointTest, ReaderRoundTripsGoldenFile) {
  const std::string golden = GoldenText();
  std::istringstream is(golden);
  const CampaignCheckpoint read = ReadCheckpoint(is);
  const CampaignCheckpoint expected = GoldenCheckpoint();
  EXPECT_EQ(read.config_hash, expected.config_hash);
  ASSERT_EQ(read.shards.size(), expected.shards.size());
  for (std::size_t s = 0; s < expected.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const auto& a = expected.shards[s];
    const auto& b = read.shards[s];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.status.device, b.status.device);
    EXPECT_EQ(a.status.temperature, b.status.temperature);
    EXPECT_EQ(a.status.state, b.status.state);
    EXPECT_EQ(a.status.attempts, b.status.attempts);
    EXPECT_EQ(a.status.backoff_ticks, b.status.backoff_ticks);
    EXPECT_EQ(a.status.error, b.status.error);
    EXPECT_TRUE(b.status.from_checkpoint);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t r = 0; r < a.records.size(); ++r) {
      const SeriesRecord& x = a.records[r];
      const SeriesRecord& y = b.records[r];
      EXPECT_EQ(x.device, y.device);
      EXPECT_EQ(x.mfr, y.mfr);
      EXPECT_EQ(x.standard, y.standard);
      EXPECT_EQ(x.density_gbit, y.density_gbit);
      EXPECT_EQ(x.die_rev, y.die_rev);
      EXPECT_EQ(x.row, y.row);
      EXPECT_EQ(x.pattern, y.pattern);
      EXPECT_EQ(x.t_on, y.t_on);
      EXPECT_EQ(x.temperature, y.temperature);
      EXPECT_EQ(x.rdt_guess, y.rdt_guess);
      EXPECT_EQ(x.series, y.series);
    }
  }
  EXPECT_EQ(Serialize(read), golden);
}

/// `text` with the series line that follows the first header ending in
/// `header_suffix` replaced by `series_line`.
std::string WithSeriesLine(const std::string& text,
                           const std::string& header_suffix,
                           const std::string& series_line) {
  const std::size_t header = text.find(header_suffix + "\n");
  EXPECT_NE(header, std::string::npos) << header_suffix;
  const std::size_t begin = header + header_suffix.size() + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + series_line + text.substr(end);
}

TEST(CampaignCheckpointTest, MalformedSeriesLineIsFatal) {
  const std::string golden = GoldenText();
  const std::string header = " 4054000000000000 0 3";  // S2's "1 2 3"
  ASSERT_EQ(WithSeriesLine(golden, header, "1 2 3"), golden);
  const std::string lines[] = {
      "1 2",      "1 2 3 4", "",       "1 2 3 ", " 1 2 3", "1  2 3",
      "1 2 x",    "1 2 +3",  "1 2 3x", "1,2,3",  "1 2 99999999999999999999",
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE("series line '" + line + "'");
    std::istringstream is(WithSeriesLine(golden, header, line));
    EXPECT_THROW(ReadCheckpoint(is), FatalError);
  }
  // Trailing text after the series length, and a file that ends before
  // its series line.
  std::string extra = golden;
  extra.insert(golden.find(header) + header.size(), " 9");
  std::istringstream extra_is(extra);
  EXPECT_THROW(ReadCheckpoint(extra_is), FatalError);
  std::istringstream cut(
      golden.substr(0, golden.find(header) + header.size()));
  EXPECT_THROW(ReadCheckpoint(cut), FatalError);
}

CampaignConfig FuzzConfig() {
  CampaignConfig config;
  config.devices = {"M1", "S2"};
  config.rows_per_device = 2;
  config.measurements = 6;
  config.temperatures = {50.0, 80.0};
  config.scan_rows_per_region = 32;
  config.threads = 1;
  return config;
}

/// Start offsets of every line of `text` that starts with `prefix`.
std::vector<std::size_t> LinesStartingWith(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::size_t> starts;
  for (std::size_t at = 0; at < text.size();) {
    if (text.compare(at, prefix.size(), prefix) == 0) {
      starts.push_back(at);
    }
    const std::size_t end = text.find('\n', at);
    if (end == std::string::npos) {
      break;
    }
    at = end + 1;
  }
  return starts;
}

/// `text` with the last token of the line starting at `line` replaced.
std::string WithLastToken(const std::string& text, std::size_t line,
                          const std::string& value) {
  const std::size_t end = text.find('\n', line);
  const std::size_t space = text.rfind(' ', end);
  return text.substr(0, space + 1) + value + text.substr(end);
}

/// `text` with token `token` (0 = the keyword) of the line starting at
/// `line` replaced.
std::string WithToken(const std::string& text, std::size_t line,
                      int token, const std::string& value) {
  std::size_t begin = line;
  for (int t = 0; t < token; ++t) {
    begin = text.find(' ', begin) + 1;
  }
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.substr(0, begin) + value + text.substr(end);
}

/// Every enum of a parsed result holds a declared value: the ToString
/// of each raises on any other.
void ExpectValidEnums(const CampaignResult& result, std::size_t input) {
  for (const ShardStatus& status : result.shards) {
    EXPECT_NO_THROW(FormatShardStatus(status)) << "input " << input;
  }
  for (const SeriesRecord& record : result.records) {
    EXPECT_NO_THROW(vrd::ToString(record.mfr)) << "input " << input;
    EXPECT_NO_THROW(dram::ToString(record.standard)) << "input " << input;
    EXPECT_NO_THROW(dram::ToString(record.pattern)) << "input " << input;
    EXPECT_NO_THROW(ToString(record.t_on)) << "input " << input;
  }
}

TEST(CampaignCheckpointTest, MutatedCacheEntriesParseMissOrFailNamingFile) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "vrddram_ckpt_fuzz")
          .string();
  std::filesystem::remove_all(dir);
  const CampaignConfig config = FuzzConfig();
  CampaignCache cache(dir);
  ASSERT_TRUE(cache.Store(config, RunCampaign(config)));
  const std::string path = cache.EntryPath(config);
  const std::string original = ReadFile(path);
  ASSERT_GT(original.size(), 200u);

  std::vector<std::string> inputs;
  // Truncations: every offset.
  for (std::size_t size = 0; size < original.size(); ++size) {
    inputs.push_back(original.substr(0, size));
  }
  // Byte flips: one to four bytes, each xor-ed with a nonzero byte.
  Rng rng(0xf022);
  for (int i = 0; i < 400; ++i) {
    std::string text = original;
    const std::uint64_t flips = 1 + rng.NextBelow(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      text[rng.NextBelow(text.size())] ^=
          static_cast<char>(1 + rng.NextBelow(255));
    }
    inputs.push_back(std::move(text));
  }
  // Inflated (and deflated) counts on every count line.
  const std::string counts[] = {"0", "1", "7", "1099511627776",
                                "9223372036854775808",
                                "18446744073709551615", "-1"};
  for (const char* prefix : {"shards ", "records ", "record "}) {
    for (const std::size_t line : LinesStartingWith(original, prefix)) {
      for (const std::string& count : counts) {
        inputs.push_back(WithLastToken(original, line, count));
      }
    }
  }
  // Series lines with one value more, one value fewer, or none.
  for (const std::size_t header : LinesStartingWith(original, "record ")) {
    const std::size_t begin = original.find('\n', header) + 1;
    const std::size_t end = original.find('\n', begin);
    const std::string line = original.substr(begin, end - begin);
    const std::size_t last = line.rfind(' ');
    for (const std::string& replaced :
         {line + " 12345", line.substr(0, last), std::string()}) {
      inputs.push_back(original.substr(0, begin) + replaced +
                       original.substr(end));
    }
  }
  // A well-formed entry that lacks its last shard.
  {
    const std::string text =
        original.substr(0, LinesStartingWith(original, "shard ").back()) +
        "end\n";
    const std::size_t shard_count =
        config.devices.size() * config.temperatures.size();
    inputs.push_back(WithLastToken(text,
                                   LinesStartingWith(text, "shards ")[0],
                                   std::to_string(shard_count - 1)));
  }

  // One out-of-range value per enum field (record: mfr, standard,
  // pattern, t_on; shard: state). Each must fail naming the file.
  std::vector<std::string> out_of_range;
  const std::size_t record = LinesStartingWith(original, "record ")[0];
  const std::size_t shard = LinesStartingWith(original, "shard ")[0];
  const struct {
    std::size_t line;
    int token;
    std::vector<std::string> values;
  } enum_fields[] = {
      {record, 2, {"3", "7", "-1", "256"}},
      {record, 3, {"3", "255"}},
      {record, 7, {"4", "-1"}},
      {record, 8, {"3", "9"}},
      {shard, 4, {"2", "5", "-1"}},
  };
  for (const auto& field : enum_fields) {
    for (const std::string& value : field.values) {
      out_of_range.push_back(
          WithToken(original, field.line, field.token, value));
      ASSERT_NE(out_of_range.back(), original);
    }
  }
  for (const std::string& text : out_of_range) {
    WriteFile(path, text);
    try {
      CampaignCache(dir).Lookup(config);
      ADD_FAILURE() << "out-of-range enum parsed:\n"
                    << text.substr(0, text.find("\nrecords"));
    } catch (const FatalError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    }
  }
  inputs.insert(inputs.end(), out_of_range.begin(), out_of_range.end());

  std::size_t parsed = 0;
  std::size_t missed = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    WriteFile(path, inputs[i]);
    CampaignCache reader(dir);
    try {
      if (const auto result = reader.Lookup(config)) {
        ++parsed;
        ExpectValidEnums(*result, i);
      } else {
        ++missed;
      }
    } catch (const FatalError& e) {
      ++failed;
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos)
          << "input " << i << ": " << what;
    }
  }
  EXPECT_EQ(parsed + missed + failed, inputs.size());
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(missed, 0u);
  EXPECT_GT(failed, 0u);

  // The unmutated entry still parses.
  WriteFile(path, original);
  EXPECT_TRUE(CampaignCache(dir).Lookup(config).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vrddram::core
