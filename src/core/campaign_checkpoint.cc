#include "core/campaign_checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace vrddram::core {

namespace {

constexpr char kMagic[] = "vrddram-campaign-checkpoint";

/// Doubles round-trip as bit-cast hex so restored values are exact.
std::string DoubleToHex(double value) {
  return Hex16(std::bit_cast<std::uint64_t>(value));
}

/// A token the grammar stores bare must not break tokenization.
void CheckToken(const std::string& token, const char* what) {
  VRD_FATAL_IF(token.empty() ||
                   token.find_first_of(" \t\n\r") != std::string::npos,
               std::string("checkpoint: ") + what +
                   " must be a non-empty whitespace-free token, got '" +
                   token + "'");
}

void Expect(std::istream& is, const char* keyword) {
  std::string word;
  is >> word;
  VRD_FATAL_IF(word != keyword, "checkpoint: expected '" +
                                    std::string(keyword) + "', got '" +
                                    word + "'");
}

template <typename T>
T ReadInt(std::istream& is, const char* what) {
  T value{};
  is >> value;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: bad integer field: ") + what);
  return value;
}

std::string ReadToken(std::istream& is, const char* what) {
  std::string token;
  is >> token;
  VRD_FATAL_IF(is.fail(),
               std::string("checkpoint: missing field: ") + what);
  return token;
}

/// A field written by Hex16: a config hash or a double's bit pattern.
std::uint64_t ReadHex(std::istream& is, const char* what) {
  const std::string token = ReadToken(is, what);
  const char* const end = token.data() + token.size();
  std::uint64_t value = 0;
  const auto [next, ec] = std::from_chars(token.data(), end, value, 16);
  VRD_FATAL_IF(ec != std::errc() || next != end,
               std::string("checkpoint: bad hex field ") + what + " '" +
                   token + "'");
  return value;
}

double ReadHexDouble(std::istream& is, const char* what) {
  return std::bit_cast<double>(ReadHex(is, what));
}

/// An enum stored as its integer value: anything past `last` comes
/// from a corrupted file and must not be cast into the enum.
template <typename Enum>
Enum ReadEnum(std::istream& is, const char* what, Enum last) {
  const int value = ReadInt<int>(is, what);
  VRD_FATAL_IF(value < 0 || value > static_cast<int>(last),
               std::string("checkpoint: ") + what + " " +
                   std::to_string(value) + " out of range");
  return static_cast<Enum>(value);
}

/// `line` is the caller's buffer, reused across records: the series
/// line is formatted into it with to_chars and written in one call.
void WriteRecord(std::ostream& os, const SeriesRecord& record,
                 std::string* line) {
  os << "record " << record.device << ' '
     << static_cast<int>(record.mfr) << ' '
     << static_cast<int>(record.standard) << ' ' << record.density_gbit
     << ' ' << static_cast<int>(record.die_rev) << ' ' << record.row
     << ' ' << static_cast<int>(record.pattern) << ' '
     << static_cast<int>(record.t_on) << ' '
     << DoubleToHex(record.temperature) << ' ' << record.rdt_guess << ' '
     << record.series.size() << '\n';
  // Each value takes at most 20 characters plus its separator.
  line->resize(21 * record.series.size() + 1);
  char* out = line->data();
  char* const end = out + line->size();
  for (std::size_t i = 0; i < record.series.size(); ++i) {
    if (i != 0) {
      *out++ = ' ';
    }
    out = std::to_chars(out, end, record.series[i]).ptr;
  }
  *out++ = '\n';
  os.write(line->data(), out - line->data());
}

SeriesRecord ReadRecord(std::istream& is) {
  Expect(is, "record");
  SeriesRecord record;
  record.device = ReadToken(is, "record device");
  record.mfr = ReadEnum(is, "mfr", vrd::Manufacturer::kMfrS);
  record.standard = ReadEnum(is, "standard", dram::Standard::kHbm2);
  record.density_gbit = ReadInt<std::uint32_t>(is, "density");
  record.die_rev = static_cast<char>(ReadInt<int>(is, "die_rev"));
  record.row = ReadInt<dram::RowAddr>(is, "row");
  record.pattern = ReadEnum(is, "pattern", dram::DataPattern::kCheckered1);
  record.t_on = ReadEnum(is, "t_on", TOnChoice::kNineTrefi);
  record.temperature = ReadHexDouble(is, "record temperature");
  record.rdt_guess = ReadInt<std::uint64_t>(is, "rdt_guess");
  const auto n = ReadInt<std::size_t>(is, "series length");
  VRD_FATAL_IF(is.get() != '\n',
               "checkpoint: expected end of line after series length");
  // The series line: n values, single spaces between them.
  std::string line;
  std::getline(is, line);
  VRD_FATAL_IF(is.fail(), "checkpoint: missing series line");
  // A value plus its separator takes at least two characters, so the
  // line's own length bounds the reservation, never the count n.
  record.series.reserve(std::min(n, line.size() / 2 + 1));
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) {
      VRD_FATAL_IF(p == end || *p != ' ',
                   "checkpoint: bad integer field: series value");
      ++p;
    }
    std::int64_t value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    VRD_FATAL_IF(ec != std::errc(),
                 "checkpoint: bad integer field: series value");
    record.series.push_back(value);
    p = next;
  }
  VRD_FATAL_IF(p != end,
               "checkpoint: series line holds more values than its count");
  return record;
}

}  // namespace

std::string Hex16(std::uint64_t value) {
  char digits[16];
  char* const end = std::to_chars(digits, digits + 16, value, 16).ptr;
  return std::string(16 - (end - digits), '0').append(digits, end);
}

std::uint64_t HashCampaignConfig(const CampaignConfig& config) {
  // Canonical string over the result-defining fields only (see header:
  // execution knobs are excluded on purpose).
  std::ostringstream os;
  os << "v" << CampaignCheckpoint::kFormatVersion;
  os << "|devices";
  for (const std::string& name : config.devices) {
    os << ':' << name;
  }
  os << "|rows:" << config.rows_per_device;
  os << "|meas:" << config.measurements;
  os << "|patterns";
  for (const dram::DataPattern pattern : config.patterns) {
    os << ':' << static_cast<int>(pattern);
  }
  os << "|t_ons";
  for (const TOnChoice t_on : config.t_ons) {
    os << ':' << static_cast<int>(t_on);
  }
  os << "|temps";
  for (const Celsius temperature : config.temperatures) {
    os << ':' << DoubleToHex(temperature);
  }
  os << "|scan:" << config.scan_rows_per_region;
  os << "|seed:" << config.base_seed;
  os << "|rig:" << (config.use_thermal_rig ? 1 : 0);
  return HashLabel(0x5a6ec4a1, os.str());
}

void WriteCheckpoint(std::ostream& os, std::uint64_t config_hash,
                     std::span<const ShardView> shards) {
  os << kMagic << ' ' << CampaignCheckpoint::kFormatVersion << '\n';
  os << "config " << Hex16(config_hash) << '\n';
  os << "shards " << shards.size() << '\n';
  std::string line;
  for (const ShardView& shard : shards) {
    const ShardStatus& status = shard.status;
    CheckToken(status.device, "shard device name");
    os << "shard " << shard.index << ' ' << status.device << ' '
       << DoubleToHex(status.temperature) << ' '
       << static_cast<int>(status.state) << ' ' << status.attempts << ' '
       << status.backoff_ticks << '\n';
    // Free-text field: keep it on its own line so tokens stay clean.
    os << "error " << status.error << '\n';
    os << "records " << shard.records.size() << '\n';
    for (const SeriesRecord& record : shard.records) {
      WriteRecord(os, record, &line);
    }
  }
  os << "end\n";
  os.flush();
  VRD_FATAL_IF(!os, "checkpoint: stream failed while writing");
}

CampaignCheckpoint ReadCheckpoint(std::istream& is) {
  Expect(is, kMagic);
  const auto version = ReadInt<std::uint32_t>(is, "format version");
  VRD_FATAL_IF(version != CampaignCheckpoint::kFormatVersion,
               "checkpoint: format version " + std::to_string(version) +
                   " does not match expected " +
                   std::to_string(CampaignCheckpoint::kFormatVersion));
  CampaignCheckpoint checkpoint;
  Expect(is, "config");
  checkpoint.config_hash = ReadHex(is, "config hash");
  Expect(is, "shards");
  // Counts are read from the file, so nothing reserves on them: a
  // corrupted count must fail on the first missing token with a
  // FatalError, never turn into a huge allocation.
  const auto shard_count = ReadInt<std::size_t>(is, "shard count");
  for (std::size_t s = 0; s < shard_count; ++s) {
    Expect(is, "shard");
    CampaignCheckpoint::ShardEntry entry;
    entry.index = ReadInt<std::size_t>(is, "shard index");
    entry.status.device = ReadToken(is, "shard device");
    entry.status.temperature = ReadHexDouble(is, "shard temperature");
    // Quarantined shards are never checkpointed: kRetried is the last
    // state a file may hold.
    entry.status.state =
        ReadEnum(is, "shard state", ShardState::kRetried);
    entry.status.attempts = ReadInt<std::uint64_t>(is, "shard attempts");
    entry.status.backoff_ticks = ReadInt<Tick>(is, "shard backoff");
    entry.status.from_checkpoint = true;
    Expect(is, "error");
    is.ignore(1);  // the single space separating keyword and text
    std::getline(is, entry.status.error);
    Expect(is, "records");
    const auto record_count = ReadInt<std::size_t>(is, "record count");
    for (std::size_t r = 0; r < record_count; ++r) {
      entry.records.push_back(ReadRecord(is));
    }
    checkpoint.shards.push_back(std::move(entry));
  }
  Expect(is, "end");
  std::sort(checkpoint.shards.begin(), checkpoint.shards.end(),
            [](const CampaignCheckpoint::ShardEntry& a,
               const CampaignCheckpoint::ShardEntry& b) {
              return a.index < b.index;
            });
  for (std::size_t s = 1; s < checkpoint.shards.size(); ++s) {
    VRD_FATAL_IF(
        checkpoint.shards[s].index == checkpoint.shards[s - 1].index,
        "checkpoint: duplicate shard index " +
            std::to_string(checkpoint.shards[s].index));
  }
  return checkpoint;
}

void SaveCheckpoint(const std::string& path, std::uint64_t config_hash,
                    std::span<const ShardView> shards) {
  VRD_FATAL_IF(path.empty(), "checkpoint: empty path");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    VRD_FATAL_IF(!os, "checkpoint: cannot open '" + tmp + "' for writing");
    WriteCheckpoint(os, config_hash, shards);
    os.close();
    VRD_FATAL_IF(!os, "checkpoint: failed to finish writing '" + tmp + "'");
  }
  VRD_FATAL_IF(std::rename(tmp.c_str(), path.c_str()) != 0,
               "checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
}

std::optional<CampaignCheckpoint> LoadCheckpoint(
    const std::string& path, std::uint64_t expected_config_hash) {
  std::ifstream is(path);
  if (!is) {
    return std::nullopt;  // nothing to resume
  }
  CampaignCheckpoint checkpoint;
  try {
    checkpoint = ReadCheckpoint(is);
  } catch (const FatalError& e) {
    // Re-raise with the offending file named: the grammar-level
    // messages have no way to know which path they came from.
    throw FatalError("checkpoint '" + path + "': " + e.what());
  }
  if (checkpoint.config_hash != expected_config_hash) {
    throw FatalError("checkpoint '" + path + "': config hash " +
                     Hex16(checkpoint.config_hash) +
                     " does not match the requested campaign's hash " +
                     Hex16(expected_config_hash) +
                     "; it belongs to a different configuration");
  }
  return checkpoint;
}

}  // namespace vrddram::core
