#include "common/experiment.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/error.h"

namespace vrddram::bench {

ExperimentRegistry& ExperimentRegistry::Instance() {
  static ExperimentRegistry registry;
  return registry;
}

void ExperimentRegistry::Register(ExperimentSpec spec) {
  VRD_FATAL_IF(spec.name.empty(), "experiment spec has no name");
  VRD_FATAL_IF(spec.analyze == nullptr,
               "experiment '" + spec.name + "' has no analyze function");
  VRD_FATAL_IF(Find(spec.name) != nullptr,
               "duplicate experiment name '" + spec.name + "'");
  specs_.push_back(std::move(spec));
}

const ExperimentSpec* ExperimentRegistry::Find(
    const std::string& name) const {
  for (const ExperimentSpec& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<const ExperimentSpec*> ExperimentRegistry::All() const {
  std::vector<const ExperimentSpec*> all;
  all.reserve(specs_.size());
  for (const ExperimentSpec& spec : specs_) {
    all.push_back(&spec);
  }
  std::sort(all.begin(), all.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return a->name < b->name;
            });
  return all;
}

ExperimentRegistrar::ExperimentRegistrar(ExperimentSpec (*factory)()) {
  ExperimentRegistry::Instance().Register(factory());
}

FlagSpec ThreadsFlagSpec() {
  return {"threads", "0",
          "worker threads for the campaign and the parallel analysis "
          "(0 = hardware concurrency, 1 = serial)"};
}

FlagSpec DevicesFlagSpec(std::string default_value) {
  return {"devices", std::move(default_value),
          "device set: all, ddr4, hbm2, or comma list"};
}

FlagSpec RowsFlagSpec(std::string default_value) {
  return {"rows", std::move(default_value), "victim rows per device"};
}

FlagSpec SeedFlagSpec() { return {"seed", "2025", "base RNG seed"}; }

FlagSpec ScanFlagSpec() {
  return {"scan", "96", "rows scanned per region when selecting victims"};
}

std::vector<FlagSpec> CampaignProcedure::Schema(
    std::vector<FlagSpec> own) const {
  std::vector<FlagSpec> schema;
  if (!devices.empty()) {
    schema.push_back(DevicesFlagSpec(std::string(devices)));
  }
  schema.insert(schema.end(),
                {RowsFlagSpec(std::string(rows)),
                 {"measurements", "1000", "measurements per series"},
                 SeedFlagSpec(), ScanFlagSpec()});
  if (min_rdt) {
    schema.push_back(
        {"iters", "0",
         "0 = exact closed form; N > 0 = Monte Carlo with N iterations "
         "per (row, N) (paper: 10000)"});
  }
  schema.insert(schema.end(), std::make_move_iterator(own.begin()),
                std::make_move_iterator(own.end()));
  schema.insert(
      schema.end(),
      {ThreadsFlagSpec(),
       {"checkpoint", "", "persist completed shards to this file"},
       {"resume", "false", "restore completed shards from --checkpoint"},
       {"inject", "", "fault-injection plan (fi::FaultPlan grammar)"},
       {"max_attempts", "3", "attempts per shard before quarantine"}});
  return schema;
}

core::CampaignConfig CampaignProcedure::Build(const Flags& flags) const {
  core::CampaignConfig config;
  if (!devices.empty()) {
    config.devices = ResolveDevices(flags.GetString("devices"));
  }
  config.rows_per_device = static_cast<std::size_t>(flags.GetUint("rows"));
  config.measurements =
      static_cast<std::size_t>(flags.GetUint("measurements"));
  config.base_seed = flags.GetUint("seed");
  config.scan_rows_per_region =
      static_cast<std::size_t>(flags.GetUint("scan"));
  config.threads = ResolveThreads(flags);
  config.checkpoint_path = flags.GetString("checkpoint");
  config.resume = flags.GetBool("resume");
  config.inject = flags.GetString("inject");
  config.max_attempts =
      static_cast<std::size_t>(flags.GetUint("max_attempts"));
  return config;
}

MinRdtAnalysis AnalyzeMinRdt(const core::CampaignResult& result,
                             Report* report, std::uint64_t salt,
                             core::MinRdtSettings settings) {
  settings.iterations =
      static_cast<std::size_t>(report->flags.GetUint("iters"));
  PrintShardSummary(report->out, result);
  const std::uint64_t base_seed = report->flags.GetUint("seed");
  Rng rng(base_seed ^ salt);
  std::vector<core::RowMinRdtResult> rows = core::AnalyzeRows(
      result.records, settings, rng, ResolveThreads(report->flags));
  return {std::move(settings), std::move(rows)};
}

}  // namespace vrddram::bench
