/**
 * Schema-driven Flags, the experiment registry, the shared §5 campaign
 * procedure, and the shared manufacturer grouping helper.
 */
#include "common/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/campaign_checkpoint.h"

namespace vrddram::bench {
namespace {

const std::vector<FlagSpec> kSchema = {
    {"rows", "6", "victim rows per device"},
    {"ber", "0.25", "bit error rate"},
    {"device", "M1", "device under test"},
    {"rig", "true", "use the thermal rig"},
};

TEST(FlagsSchemaTest, GettersFallBackToSchemaDefaults) {
  const Flags flags({}, kSchema);
  EXPECT_EQ(flags.GetUint("rows"), 6u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber"), 0.25);
  EXPECT_EQ(flags.GetString("device"), "M1");
  EXPECT_TRUE(flags.GetBool("rig"));
}

TEST(FlagsSchemaTest, ArgumentsOverrideDefaults) {
  const Flags flags({"--rows=42", "--rig=false"}, kSchema);
  EXPECT_EQ(flags.GetUint("rows"), 42u);
  EXPECT_FALSE(flags.GetBool("rig"));
  EXPECT_EQ(flags.GetString("device"), "M1");
}

TEST(FlagsSchemaTest, RejectsFlagsOutsideTheSchema) {
  EXPECT_THROW(Flags({"--bogus=1"}, kSchema), FatalError);
  const Flags flags({}, kSchema);
  EXPECT_THROW(flags.GetUint("not_declared"), FatalError);
}

TEST(FlagsSchemaTest, DescribeListsEveryFlagWithDefaultAndHelp) {
  const std::string text = Flags::Describe(kSchema);
  EXPECT_NE(text.find("flags:"), std::string::npos);
  EXPECT_NE(text.find("--rows=6"), std::string::npos);
  EXPECT_NE(text.find("victim rows per device"), std::string::npos);
  EXPECT_NE(text.find("--rig=true"), std::string::npos);
  const Flags flags({}, kSchema);
  EXPECT_EQ(flags.Describe(), text);
  EXPECT_EQ(Flags::Describe({}), "");
}

TEST(ExperimentRegistryTest, FindsEveryPortedExperiment) {
  const auto& registry = ExperimentRegistry::Instance();
  for (const char* name :
       {"fig01_rdt_series", "fig10_data_pattern", "fig11_taggon",
        "table01_population", "table07_module_summary",
        "appendix_test_time", "future_ddr5"}) {
    const ExperimentSpec* spec = registry.Find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_EQ(spec->name, name);
    EXPECT_TRUE(spec->analyze) << name;
  }
  EXPECT_EQ(registry.Find("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistryTest, AllIsSortedAndComplete) {
  const auto all = ExperimentRegistry::Instance().All();
  EXPECT_GE(all.size(), 24u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }
}

TEST(ExperimentRegistryTest, RejectsDuplicateAndMalformedSpecs) {
  auto& registry = ExperimentRegistry::Instance();
  ExperimentSpec duplicate;
  duplicate.name = "fig10_data_pattern";
  duplicate.analyze = [](const core::CampaignResult&, Report*) {};
  EXPECT_THROW(registry.Register(duplicate), FatalError);

  ExperimentSpec unnamed;
  unnamed.analyze = [](const core::CampaignResult&, Report*) {};
  EXPECT_THROW(registry.Register(unnamed), FatalError);

  ExperimentSpec no_analyze;
  no_analyze.name = "zz_no_analyze";
  EXPECT_THROW(registry.Register(no_analyze), FatalError);
}

// What each campaign experiment builds and declares, captured while
// each still spelled out its own flags and config builder: the config
// hash at default flags and at its smoke_args, and a hash of its
// Describe() text. A change to any default, help text, flag order or
// config field of the shared procedure moves one of them.
struct CampaignPin {
  const char* name;
  std::uint64_t default_config;
  std::uint64_t smoke_config;
  std::uint64_t schema;
};

constexpr CampaignPin kCampaignPins[] = {
    {"fig07_cv_scurve", 0x98209bf9d9988b0eULL,
     0xd8ef5a01949a69a1ULL, 0x77c82cb4b320d555ULL},
    {"fig08_min_rdt_probability", 0xb0cf61233ad5b34cULL,
     0xae13e081f1985bd8ULL, 0x2c7f0636fad6ae1cULL},
    {"fig09_density_die_rev", 0x18c4a4d7e180caffULL,
     0xfca62473c6a0848cULL, 0x19873a13dddd0eeaULL},
    {"fig10_data_pattern", 0xbadac4e1705cabb2ULL,
     0xd213275ede1d2ff6ULL, 0x89c59c81c9190931ULL},
    {"fig11_taggon", 0x99a16c292e192555ULL,
     0xb6cd30ef2bae3a06ULL, 0x89c59c81c9190931ULL},
    {"fig12_temperature", 0xb6abae22d2603c3aULL,
     0x8dba3fcc52f7c93cULL, 0x1cbc9692c36d89fcULL},
    {"fig15_guardband_probability", 0x99098c5b934b628dULL,
     0xbbb5e8bf605268a3ULL, 0x89c59c81c9190931ULL},
    {"table07_module_summary", 0xdd8767b550a76f7cULL,
     0x1c03f08a983dbdc9ULL, 0x89c59c81c9190931ULL},
};

TEST(CampaignProcedureTest, ConfigsAndSchemasMatchPins) {
  std::size_t campaigns = 0;
  for (const ExperimentSpec* spec : ExperimentRegistry::Instance().All()) {
    campaigns += spec->build_campaign ? 1 : 0;
  }
  EXPECT_EQ(campaigns, std::size(kCampaignPins));
  for (const CampaignPin& pin : kCampaignPins) {
    const ExperimentSpec* spec = ExperimentRegistry::Instance().Find(pin.name);
    ASSERT_NE(spec, nullptr) << pin.name;
    ASSERT_TRUE(spec->build_campaign) << pin.name;
    const Flags defaults({}, spec->flags);
    const Flags smoke(spec->smoke_args, spec->flags);
    EXPECT_EQ(core::HashCampaignConfig(spec->build_campaign(defaults)),
              pin.default_config)
        << pin.name;
    EXPECT_EQ(core::HashCampaignConfig(spec->build_campaign(smoke)),
              pin.smoke_config)
        << pin.name;
    const std::string schema = Flags::Describe(spec->flags);
    EXPECT_EQ(HashLabel(0, schema), pin.schema) << pin.name << '\n'
                                                << schema;
  }
}

TEST(CampaignProcedureTest, ExecutionFlagsReachEveryCampaignConfig) {
  // The execution knobs are not in the config hash, so they are
  // checked field by field.
  for (const CampaignPin& pin : kCampaignPins) {
    const ExperimentSpec* spec = ExperimentRegistry::Instance().Find(pin.name);
    ASSERT_NE(spec, nullptr) << pin.name;
    const Flags flags({"--threads=3", "--checkpoint=shards.ckpt",
                       "--resume", "--inject=campaign.shard:p=0.5",
                       "--max_attempts=5"},
                      spec->flags);
    const core::CampaignConfig config = spec->build_campaign(flags);
    EXPECT_EQ(config.threads, 3u) << pin.name;
    EXPECT_EQ(config.checkpoint_path, "shards.ckpt") << pin.name;
    EXPECT_TRUE(config.resume) << pin.name;
    EXPECT_EQ(config.inject, "campaign.shard:p=0.5") << pin.name;
    EXPECT_EQ(config.max_attempts, 5u) << pin.name;
  }
}

TEST(GroupNameTest, Hbm2ChipsShareOneGroup) {
  core::SeriesRecord record;
  record.standard = dram::Standard::kHbm2;
  record.mfr = vrd::Manufacturer::kMfrS;
  EXPECT_EQ(ManufacturerGroupName(record), "Mfr. S HBM2");
}

TEST(GroupNameTest, Ddr4ModulesGroupByManufacturer) {
  core::SeriesRecord record;
  record.standard = dram::Standard::kDdr4;
  record.mfr = vrd::Manufacturer::kMfrM;
  EXPECT_EQ(ManufacturerGroupName(record), ToString(record.mfr));
  record.mfr = vrd::Manufacturer::kMfrH;
  EXPECT_EQ(ManufacturerGroupName(record), "Mfr. H");
}

}  // namespace
}  // namespace vrddram::bench
