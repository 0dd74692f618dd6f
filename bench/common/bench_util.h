/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: flag
 * parsing, series collection shortcuts, box-plot row formatting, and
 * the paper-vs-measured check lines recorded in EXPERIMENTS.md.
 */
#ifndef VRDDRAM_BENCH_COMMON_BENCH_UTIL_H
#define VRDDRAM_BENCH_COMMON_BENCH_UTIL_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "core/campaign.h"
#include "core/rdt_profiler.h"
#include "core/series_analysis.h"
#include "stats/descriptive.h"
#include "vrd/chip_catalog.h"

namespace vrddram::bench {

/// One documented knob of an experiment: its flag name (without the
/// leading "--"), the textual default, and a one-line description.
struct FlagSpec {
  std::string name;
  std::string default_value;
  std::string help;
};

/**
 * Tiny --key=value flag parser. Every experiment documents its knobs
 * through a FlagSpec schema: construction rejects unknown flags, and
 * the getters reject malformed values, each with a FatalError whose
 * message embeds Describe(), so an abort always prints the real schema.
 */
class Flags {
 public:
  /**
   * Schema-validating: `args` are raw "--key[=value]" tokens. A token
   * without "--", or a key absent from `schema`, raises FatalError
   * naming the offender and listing the schema via Describe().
   */
  Flags(const std::vector<std::string>& args,
        const std::vector<FlagSpec>& schema);

  /// Getters fall back to the FlagSpec default. They raise FatalError
  /// when `key` is not in the schema (an undocumented knob is a bug in
  /// the experiment spec) or when the value does not parse: GetUint
  /// takes decimal digits that fit 64 bits, GetDouble a whole finite
  /// number, GetBool true/false/1/0 (a bare --key means true).
  std::uint64_t GetUint(const std::string& key) const;
  double GetDouble(const std::string& key) const;
  std::string GetString(const std::string& key) const;
  bool GetBool(const std::string& key) const;

  /// Human-readable flag schema, one "--name=default  help" line per
  /// spec. Empty string for an empty schema.
  std::string Describe() const;
  static std::string Describe(const std::vector<FlagSpec>& schema);

 private:
  const FlagSpec& SpecFor(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<FlagSpec> schema_;
};

/// Resolve a --devices= flag value: "all", "ddr4", "hbm2", or a
/// comma-separated list of catalog names. A name not in the catalog
/// raises FatalError naming it and listing the catalog.
std::vector<std::string> ResolveDevices(const std::string& spec);

/// Resolve the --threads= flag for the campaign executor and the
/// parallel analysis loops: 0 selects hardware_concurrency, 1 forces
/// the serial path. Results are bit-identical for every value.
std::size_t ResolveThreads(const Flags& flags);

/// Print the per-shard execution summary (ok/retried/quarantined
/// counts plus one line for each shard that did not run clean).
void PrintShardSummary(std::ostream& os,
                       const core::CampaignResult& result);

/// Per-manufacturer grouping shared by the figure benches: DDR4
/// records group under their manufacturer's display name, while the
/// HBM2 chips (all from Mfr. S) get their own "Mfr. S HBM2" bucket so
/// the two standards are never pooled.
std::string ManufacturerGroupName(const core::SeriesRecord& record);

/// One 100k-style single-row series: find a victim on the device per
/// Alg. 1 and measure it `measurements` times.
struct SingleRowSeries {
  std::string device;
  dram::RowAddr row = 0;
  std::uint64_t rdt_guess = 0;
  std::vector<std::int64_t> series;
};

/// Runs Alg. 1 on one device (Checkered0, min tRAS, 80 degC - the §4
/// foundational setup). Returns false if no victim row qualifies.
bool CollectSingleRowSeries(const std::string& device_name,
                            std::size_t measurements,
                            std::uint64_t seed, SingleRowSeries* out);

/**
 * CollectSingleRowSeries on every device of `devices`, one task per
 * device on `threads` workers (0 = hardware concurrency): the task
 * hands its series to `fn` and keeps only fn's result, so no series
 * outlives its task. Slot i belongs to devices[i] and is empty when
 * that device has no victim row. `fn` runs concurrently on different
 * series and must not touch shared mutable state; results are the
 * same for every `threads`.
 */
template <typename Fn,
          typename R = std::invoke_result_t<const Fn&, const SingleRowSeries&>>
std::vector<std::optional<R>> MapSingleRowSeries(
    const std::vector<std::string>& devices, std::size_t measurements,
    std::uint64_t seed, std::size_t threads, const Fn& fn) {
  std::vector<std::optional<R>> slots(devices.size());
  ParallelForThreads(threads, devices.size(), [&](std::size_t i) {
    SingleRowSeries data;
    if (CollectSingleRowSeries(devices[i], measurements, seed, &data)) {
      slots[i] = fn(data);
    }
  });
  return slots;
}

/// Append one box-and-whiskers row (min / Q1 / median / Q3 / max /
/// mean) to a table.
void AddBoxRow(TextTable& table, const std::string& label,
               const stats::BoxStats& box, int precision = 0);

/// Paper-vs-measured check line, greppable for EXPERIMENTS.md:
/// "CHECK <name>: paper=<paper> measured=<measured>".
void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, const std::string& measured);
void PrintCheck(std::ostream& os, const std::string& name, double paper,
                double measured, int precision = 3);
void PrintCheck(std::ostream& os, const std::string& name,
                const std::string& paper, double measured,
                int precision = 3);

/// Box stats over a vector<double>; convenience alias used by benches.
stats::BoxStats Box(const std::vector<double>& xs);

}  // namespace vrddram::bench

#endif  // VRDDRAM_BENCH_COMMON_BENCH_UTIL_H
