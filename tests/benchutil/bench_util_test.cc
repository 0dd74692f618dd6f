#include "common/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

namespace vrddram::bench {
namespace {

const std::vector<FlagSpec> kSchema = {
    {"rows", "7", "victim rows"},
    {"ber", "1.5", "bit error rate"},
    {"device", "H1", "device name"},
    {"rig", "true", "use the rig"},
    {"full", "false", "full scale"},
};

Flags MakeFlags(const std::vector<std::string>& args) {
  return Flags(args, kSchema);
}

TEST(FlagsTest, ParsesKeyValuePairs) {
  const Flags flags = MakeFlags(
      {"--rows=42", "--ber=0.25", "--device=M3", "--rig=false"});
  EXPECT_EQ(flags.GetUint("rows"), 42u);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ber"), 0.25);
  EXPECT_EQ(flags.GetString("device"), "M3");
  EXPECT_FALSE(flags.GetBool("rig"));
  EXPECT_EQ(MakeFlags({"--rows=18446744073709551615"}).GetUint("rows"),
            18446744073709551615u);
  EXPECT_DOUBLE_EQ(MakeFlags({"--ber=1e-3"}).GetDouble("ber"), 1e-3);
  EXPECT_TRUE(MakeFlags({"--rig=1"}).GetBool("rig"));
  EXPECT_FALSE(MakeFlags({"--rig=0"}).GetBool("rig"));
}

TEST(FlagsTest, BareFlagIsTrue) {
  const Flags flags = MakeFlags({"--full"});
  EXPECT_TRUE(flags.GetBool("full"));
}

// A malformed value must never be truncated to its numeric prefix or
// wrap around: every getter rejects it with the flag, the value and
// the schema in the message.
TEST(FlagsTest, MalformedValuesThrowNamingFlagAndValue) {
  for (const std::string value :
       {"-1", "3x", "12abc", "", "+5", " 5", "1.5", "18446744073709551616"}) {
    const Flags flags = MakeFlags({"--rows=" + value});
    try {
      flags.GetUint("rows");
      ADD_FAILURE() << "accepted --rows=" << value;
    } catch (const FatalError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("flag --rows: invalid value '" + value + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("victim rows"), std::string::npos) << what;
    }
  }
  for (const std::string value : {"0.5x", "", "nan", "inf", "1e999"}) {
    EXPECT_THROW(MakeFlags({"--ber=" + value}).GetDouble("ber"), FatalError)
        << value;
  }
  for (const std::string value : {"yes", "", "TRUE", "2"}) {
    EXPECT_THROW(MakeFlags({"--rig=" + value}).GetBool("rig"), FatalError)
        << value;
  }
}

TEST(DevicesTest, ResolvesAliases) {
  EXPECT_EQ(ResolveDevices("all").size(), 25u);
  EXPECT_EQ(ResolveDevices("ddr4").size(), 21u);
  EXPECT_EQ(ResolveDevices("hbm2").size(), 4u);
}

TEST(DevicesTest, ResolvesCommaSeparatedList) {
  const auto devices = ResolveDevices("H1,M2,Chip0");
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0], "H1");
  EXPECT_EQ(devices[2], "Chip0");
  EXPECT_THROW(ResolveDevices(""), FatalError);
}

TEST(DevicesTest, RejectsNamesOutsideTheCatalog) {
  try {
    ResolveDevices("M1,ZZ9");
    FAIL() << "ZZ9 is not a catalog device";
  } catch (const FatalError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'ZZ9'"), std::string::npos) << message;
    for (const std::string& name : vrd::AllDeviceNames()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
  EXPECT_THROW(ResolveDevices("m1"), FatalError);
}

TEST(SingleRowTest, CollectsDeterministicSeries) {
  SingleRowSeries a;
  SingleRowSeries b;
  ASSERT_TRUE(CollectSingleRowSeries("S2", 50, 1, &a));
  ASSERT_TRUE(CollectSingleRowSeries("S2", 50, 1, &b));
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.series.size(), 50u);
}

TEST(BoxTest, WrapsComputeBoxStats) {
  const stats::BoxStats box = Box({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(box.median, 2.5);
}

}  // namespace
}  // namespace vrddram::bench
