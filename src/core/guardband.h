/**
 * @file
 * The §6.4 guardband + ECC experiment (Fig. 16, Table 3 inputs):
 * measure each tested row's RDT a few times, then repeatedly hammer at
 * hammer counts reduced by safety margins and record which unique
 * cells still flip, how many chips they span, and how they land in
 * SECDED / Chipkill ECC codewords.
 */
#ifndef VRDDRAM_CORE_GUARDBAND_H
#define VRDDRAM_CORE_GUARDBAND_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/rdt_profiler.h"
#include "vrd/chip_catalog.h"

namespace vrddram::core {

struct GuardbandConfig {
  std::vector<std::string> devices;     ///< paper: the §5 DDR4 modules
  std::size_t rows_per_device = 6;      ///< paper: 50
  std::size_t baseline_measurements = 5;
  std::size_t trials = 10000;
  std::vector<double> margins = {0.50, 0.40, 0.30, 0.20, 0.10};
  std::vector<dram::DataPattern> patterns = {
      dram::DataPattern::kCheckered0, dram::DataPattern::kCheckered1};
  Celsius temperature = 50.0;
  std::size_t scan_rows_per_region = 128;
  std::uint64_t base_seed = 2025;
  /// Worker threads for the per-device fan-out; 0 selects hardware
  /// concurrency, 1 runs serially. An execution knob only: outcomes
  /// and progress text are identical for every value.
  std::size_t threads = 0;
};

struct MarginOutcome {
  double margin = 0.0;
  std::uint64_t hammer_count = 0;        ///< min RDT * (1 - margin)
  std::size_t unique_bitflips = 0;       ///< union over all trials
  std::size_t chips_touched = 0;
  std::size_t max_per_secded_codeword = 0;   ///< 8-byte granule
  std::size_t max_per_chipkill_codeword = 0; ///< 16-byte granule
  std::size_t trials_with_flips = 0;
};

struct RowGuardbandOutcome {
  std::string device;
  dram::RowAddr row = 0;
  dram::DataPattern pattern = dram::DataPattern::kCheckered0;
  std::uint64_t min_rdt = 0;  ///< min over baseline measurements
  std::vector<MarginOutcome> per_margin;
};

/// Runs the study with one task per device (both patterns of a device
/// share its clock and trap state, so a device is the smallest
/// independent unit). Outcomes are device-major, then pattern, then
/// row; the per-device "guardband: <dev>, N rows" progress lines are
/// written to `progress` in device order once every device finished.
std::vector<RowGuardbandOutcome> RunGuardbandStudy(
    const GuardbandConfig& config, std::ostream* progress = nullptr);

/// Fig. 16: histogram of unique-bitflip counts across rows at one
/// margin. Key: number of unique bitflips; value: number of rows.
std::map<std::size_t, std::size_t> BitflipHistogramAtMargin(
    const std::vector<RowGuardbandOutcome>& outcomes, double margin);

/// Worst observed bit error rate across outcomes at one margin
/// (unique bitflips / row bits), the Table 3 input.
double WorstBitErrorRate(const std::vector<RowGuardbandOutcome>& outcomes,
                         double margin, std::size_t row_bits);

}  // namespace vrddram::core

#endif  // VRDDRAM_CORE_GUARDBAND_H
