/**
 * @file
 * Table 1: the tested DDR4 modules and HBM2 chips. Prints the catalog
 * population this suite instantiates (one simulated individual per
 * module), plus the Table 2 data patterns used throughout.
 */
#include <iostream>

#include "common/experiment.h"

namespace vrddram::bench {
namespace {

void AnalyzeTable01(const core::CampaignResult&, Report* report) {
  const Flags& flags = report->flags;
  std::ostream& out = report->out;
  const std::uint64_t seed = flags.GetUint("seed");

  PrintBanner(out, "Table 1: tested DDR4 modules and HBM2 chips");
  TextTable table({"Mfr.", "Module/Chip", "# of Chips",
                   "Density - Die Rev.", "Chip Org.", "Date (ww-yy)",
                   "Standard"});
  for (const std::string& name : vrd::AllDeviceNames()) {
    const vrd::TestedChip chip = vrd::MakeTestedChip(name, seed);
    const std::string density =
        Cell(std::uint64_t{chip.spec.density_gbit}) + "Gb - " +
        (chip.spec.die_rev == '?' ? std::string("N/A")
                                  : std::string(1, chip.spec.die_rev));
    table.AddRow({ToString(chip.spec.mfr), name,
                  Cell(std::uint64_t{chip.spec.chips_per_rank}), density,
                  "x" + Cell(std::uint64_t{chip.spec.dq_bits}),
                  chip.spec.date_code,
                  dram::ToString(chip.spec.standard)});
  }
  table.Print(out);

  PrintCheck(out, "table01.ddr4_chip_count", "160",
             Cell([&] {
               std::uint64_t chips = 0;
               for (const std::string& name : vrd::Ddr4ModuleNames()) {
                 chips += vrd::MakeTestedChip(name).spec.chips_per_rank;
               }
               return chips;
             }()));
  PrintCheck(out, "table01.hbm2_chip_count", "4",
             Cell(static_cast<std::uint64_t>(
                 vrd::Hbm2ChipNames().size())));

  PrintBanner(out, "Table 2: data patterns");
  TextTable patterns({"Row Addresses", "Rowstripe0", "Rowstripe1",
                      "Checkered0", "Checkered1"});
  auto hex = [](std::uint8_t byte) {
    char buffer[8];
    std::snprintf(buffer, sizeof(buffer), "0x%02X", byte);
    return std::string(buffer);
  };
  std::vector<std::string> victim = {"Victim (V)"};
  std::vector<std::string> aggr = {"Aggressors (V +- 1)"};
  std::vector<std::string> far = {"V +- [2:8]"};
  for (const dram::DataPattern p : dram::kAllDataPatterns) {
    victim.push_back(hex(dram::VictimByte(p)));
    aggr.push_back(hex(dram::AggressorByte(p)));
    far.push_back(hex(dram::SurroundByte(p)));
  }
  patterns.AddRow(victim);
  patterns.AddRow(aggr);
  patterns.AddRow(far);
  patterns.Print(out);
}

ExperimentSpec Table01Spec() {
  ExperimentSpec spec;
  spec.name = "table01_population";
  spec.description = "Table 1: tested DDR4 modules and HBM2 chips";
  spec.flags = {
      SeedFlagSpec(),
  };
  spec.smoke_args = {};
  spec.analyze = AnalyzeTable01;
  return spec;
}

VRD_REGISTER_EXPERIMENT(Table01Spec);

}  // namespace
}  // namespace vrddram::bench
