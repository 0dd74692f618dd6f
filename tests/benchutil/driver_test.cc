/**
 * In-process tests of the vrdrepro driver: command dispatch, flag
 * forwarding, and the golden cold/warm campaign-cache property — a
 * warm run must produce byte-identical output with zero campaign
 * executions, at any worker count.
 */
#include "common/driver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vrddram::bench {
namespace {

struct DriverRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

DriverRun Drive(std::vector<std::string> args) {
  std::vector<const char*> argv = {"vrdrepro"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  DriverRun run;
  run.exit_code = RunDriver(static_cast<int>(argv.size()), argv.data(),
                            out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(DriverTest, ListShowsEveryExperiment) {
  const DriverRun run = Drive({"list"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("fig01_rdt_series"), std::string::npos);
  EXPECT_NE(run.out.find("table07_module_summary"), std::string::npos);
  EXPECT_NE(run.out.find("future_ddr5"), std::string::npos);
}

TEST(DriverTest, DescribePrintsSchemaAndSmokeLine) {
  const DriverRun run = Drive({"describe", "fig10_data_pattern"});
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("--measurements=1000"), std::string::npos);
  EXPECT_NE(run.out.find("--threads=0"), std::string::npos);
  EXPECT_NE(run.out.find("smoke: --devices=M1,S2"), std::string::npos);
}

TEST(DriverTest, UnknownCommandAndExperimentFail) {
  EXPECT_EQ(Drive({"frobnicate"}).exit_code, 2);
  const DriverRun run = Drive({"run", "no_such_experiment"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown experiment"), std::string::npos);
  EXPECT_NE(run.err.find("fig01_rdt_series"), std::string::npos);
}

TEST(DriverTest, UnknownForwardedFlagAbortsWithTheRealSchema) {
  const DriverRun run =
      Drive({"run", "fig10_data_pattern", "--bogus=1"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown flag --bogus"), std::string::npos);
  EXPECT_NE(run.err.find("--measurements=1000"), std::string::npos);
  EXPECT_NE(run.err.find("victim rows per device"), std::string::npos);
}

TEST(DriverTest, MalformedNumericFlagExitsTwoNamingTheFlag) {
  // A negative count must not wrap to 2^64 - 1 (and abort in
  // reserve()), and a trailing suffix must not be dropped.
  for (const std::string flag :
       {"--measurements=-1", "--rows=3x", "--measurements=12abc"}) {
    const DriverRun run = Drive(
        {"run", "fig09_density_die_rev", "--smoke", "--no-cache", flag});
    EXPECT_EQ(run.exit_code, 2) << flag;
    const std::string key = flag.substr(0, flag.find('='));
    const std::string value = flag.substr(flag.find('=') + 1);
    EXPECT_NE(run.err.find("flag " + key + ": invalid value '" + value),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("victim rows per device"), std::string::npos)
        << run.err;
  }
}

TEST(DriverTest, UnknownDeviceNameExitsTwoBeforeAnyMeasurement) {
  // A misspelled name used to quarantine its shard and report from the
  // other devices alone, with exit code 0.
  const DriverRun run = Drive({"run", "fig08_min_rdt_probability",
                               "--smoke", "--no-cache",
                               "--devices=M1,ZZ9"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("unknown device name 'ZZ9'"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("Chip0"), std::string::npos) << run.err;
  EXPECT_EQ(run.out, "");
}

TEST(DriverTest, ZeroMixesExitsTwoNamingTheFlag) {
  // fig14 averages over the mixes and reads mix 0: with none it used
  // to index an empty vector.
  const DriverRun run = Drive(
      {"run", "fig14_mitigation_overhead", "--mixes=0", "--requests=100"});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("--mixes"), std::string::npos) << run.err;
}

TEST(DriverTest, BerOutOfRangeExitsTwoNamingTheFlag) {
  // table03 used to print its banner and then fail inside the binomial
  // model with a message that did not name the flag.
  for (const std::string flag : {"--ber=2", "--ber=-0.5", "--ber=1.0001"}) {
    const DriverRun run = Drive({"run", "table03_ecc", flag});
    EXPECT_EQ(run.exit_code, 2) << flag;
    EXPECT_NE(run.err.find("flag --ber"), std::string::npos) << run.err;
    EXPECT_EQ(run.out, "") << flag;
  }
  // The bounds themselves are rates.
  for (const std::string flag : {"--ber=0", "--ber=1"}) {
    const DriverRun run = Drive({"run", "table03_ecc", flag});
    EXPECT_EQ(run.exit_code, 0) << flag << ": " << run.err;
  }
}

TEST(DriverTest, ExactEccCrossCheckRunsAtSmokeScale) {
  // --mc_trials=0 overrides table03's smoke --mc_trials=20000 with the
  // default exact enumeration (it used to divide by zero trials and
  // print measured=-nan).
  const DriverRun run =
      Drive({"run", "table03_ecc", "--smoke", "--mc_trials=0"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  for (const std::string line : {
           "CHECK table03.enum_secded_failures_w1: paper=0 measured=0\n",
           "CHECK table03.enum_secded_failures_w2: paper=2556 measured=2556\n",
           "CHECK table03.enum_secded_failures_w3: paper=59640 "
           "measured=59640\n",
           "CHECK table03.enum_ssc_failures_w1: paper=0 measured=0\n",
           "CHECK table03.enum_ssc_failures_w2: paper=9792 measured=9792\n",
           "CHECK table03.enum_ssc_failures_w3: paper=486336 "
           "measured=486336\n",
           "CHECK table03.enum_secded_uncorrectable: paper=1.48e-05 "
           "measured=1.48e-05\n",
           "CHECK table03.enum_ssc_uncorrectable: paper=5.66e-05 "
           "measured=5.66e-05\n",
       }) {
    EXPECT_NE(run.out.find(line), std::string::npos) << line << run.out;
  }
  EXPECT_EQ(run.out.find("nan"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("Monte Carlo"), std::string::npos) << run.out;
}

TEST(DriverTest, HugeThreadCountRunsMinRdtExperiment) {
  // Every pool is capped at its task count, so a --threads far beyond
  // what the host can start still runs, with the --threads=1 report.
  const std::vector<std::string> base = {
      "run", "fig08_min_rdt_probability", "--smoke", "--no-cache"};
  std::vector<std::string> serial_args = base;
  serial_args.push_back("--threads=1");
  std::vector<std::string> huge_args = base;
  huge_args.push_back("--threads=100000");
  const DriverRun serial = Drive(serial_args);
  const DriverRun huge = Drive(huge_args);
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  ASSERT_EQ(huge.exit_code, 0) << huge.err;
  EXPECT_EQ(huge.out, serial.out);
}

TEST(DriverTest, ExactMinRdtAnalysisRunsAtSmokeScale) {
  // --iters=0 overrides fig08's smoke --iters=500 with the closed form,
  // the default analysis; its report does not depend on --threads.
  const std::vector<std::string> base = {
      "run", "fig08_min_rdt_probability", "--smoke", "--iters=0",
      "--no-cache"};
  std::vector<std::string> serial_args = base;
  serial_args.push_back("--threads=1");
  std::vector<std::string> parallel_args = base;
  parallel_args.push_back("--threads=8");
  const DriverRun serial = Drive(serial_args);
  const DriverRun parallel = Drive(parallel_args);
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_NE(serial.out.find("CHECK fig08.p50_prob_find_min_n1"),
            std::string::npos)
      << serial.out;
  EXPECT_EQ(parallel.out, serial.out);
}

TEST(DriverTest, ParallelAnalysisExperimentsAcceptThreads) {
  // Experiments without a campaign that fan out over the pool declare
  // --threads too, with the shared help text.
  for (const std::string name :
       {"fig01_rdt_series", "fig03_rdt_distribution",
        "fig04_rdt_histograms", "fig05_run_lengths",
        "fig14_mitigation_overhead", "fig16_guardband_bitflips"}) {
    const DriverRun run = Drive({"run", name, "--smoke", "--threads=2"});
    EXPECT_EQ(run.exit_code, 0) << name << ": " << run.err;
    EXPECT_EQ(run.err.find("unknown flag"), std::string::npos) << name;
    const DriverRun describe = Drive({"describe", name});
    EXPECT_NE(describe.out.find("--threads=0"), std::string::npos) << name;
    EXPECT_NE(describe.out.find("parallel analysis"), std::string::npos)
        << name;
  }
}

TEST(DriverTest, ParallelAnalysisReportsIdenticalAtOneAndEightThreads) {
  // fig14's (config, kind, mix) fan-out and fig01's per-device scan
  // (its smoke args skip the scan, so it is enabled here, over all 24
  // devices so that workers finish out of device order) must merge in
  // the serial order.
  const std::vector<std::vector<std::string>> runs = {
      {"run", "fig14_mitigation_overhead", "--requests=2000",
       "--mixes=3"},
      {"run", "fig01_rdt_series", "--measurements=2000", "--scan=all"},
  };
  for (const std::vector<std::string>& base : runs) {
    std::vector<std::string> serial_args = base;
    serial_args.push_back("--threads=1");
    std::vector<std::string> parallel_args = base;
    parallel_args.push_back("--threads=8");
    const DriverRun serial = Drive(serial_args);
    const DriverRun parallel = Drive(parallel_args);
    ASSERT_EQ(serial.exit_code, 0) << serial.err;
    ASSERT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_FALSE(serial.out.empty()) << base[1];
    EXPECT_EQ(parallel.out, serial.out) << base[1];
  }
}

TEST(DriverTest, RunRequiresNamesOrAllButNotBoth) {
  EXPECT_EQ(Drive({"run"}).exit_code, 2);
  EXPECT_EQ(Drive({"run", "--all", "fig01_rdt_series"}).exit_code, 2);
}

TEST(DriverTest, WarmCacheRunsAreByteIdenticalAtAnyThreads) {
  const std::string cache_dir =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_driver_cache")
          .string();
  std::filesystem::remove_all(cache_dir);
  const std::vector<std::string> base = {
      "run",           "fig10_data_pattern",
      "--smoke",       "--rows=2",
      "--measurements=60", "--iters=100",
      "--cache_dir=" + cache_dir};

  auto with_threads = [&](const std::string& threads) {
    std::vector<std::string> args = base;
    args.push_back("--threads=" + threads);
    return args;
  };

  // Cold at 1 worker; a fresh cache-less run at 8 workers; warm runs
  // at both worker counts.
  const DriverRun cold = Drive(with_threads("1"));
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_NE(cold.err.find("cache hits=0 misses=1 stores=1"),
            std::string::npos)
      << cold.err;

  std::vector<std::string> fresh_args = with_threads("8");
  fresh_args.push_back("--no-cache");
  const DriverRun fresh = Drive(fresh_args);
  ASSERT_EQ(fresh.exit_code, 0) << fresh.err;
  EXPECT_EQ(fresh.err.find("campaign-cache"), std::string::npos);

  const DriverRun warm1 = Drive(with_threads("1"));
  const DriverRun warm8 = Drive(with_threads("8"));
  ASSERT_EQ(warm1.exit_code, 0) << warm1.err;
  ASSERT_EQ(warm8.exit_code, 0) << warm8.err;

  EXPECT_EQ(cold.out, fresh.out);
  EXPECT_EQ(cold.out, warm1.out);
  EXPECT_EQ(cold.out, warm8.out);
  EXPECT_NE(warm1.err.find("cache hits=1 misses=0 stores=0"),
            std::string::npos)
      << warm1.err;
  EXPECT_NE(warm8.err.find("cache hits=1 misses=0 stores=0"),
            std::string::npos)
      << warm8.err;
  std::filesystem::remove_all(cache_dir);
}

TEST(DriverTest, NoCacheDirRunsCampaignsUncached) {
  const std::vector<std::string> args = {
      "run", "fig10_data_pattern", "--smoke", "--rows=2",
      "--measurements=60", "--iters=100"};
  const DriverRun plain = Drive(args);
  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  EXPECT_EQ(plain.err.find("cache"), std::string::npos) << plain.err;

  std::vector<std::string> no_cache_args = args;
  no_cache_args.push_back("--no-cache");
  const DriverRun no_cache = Drive(no_cache_args);
  ASSERT_EQ(no_cache.exit_code, 0) << no_cache.err;
  EXPECT_EQ(plain.out, no_cache.out);
}

TEST(DriverTest, CorruptedCacheCountExitsTwoNamingTheFile) {
  const std::string cache_dir =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_driver_corrupt_cache")
          .string();
  std::filesystem::remove_all(cache_dir);
  const std::vector<std::string> args = {
      "run", "fig10_data_pattern", "--smoke", "--rows=2",
      "--measurements=60", "--iters=100", "--cache_dir=" + cache_dir};
  const DriverRun cold = Drive(args);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;

  // Rewrite the single entry's first record count to 2^60.
  std::string entry;
  for (const auto& file : std::filesystem::directory_iterator(cache_dir)) {
    entry = file.path().string();
  }
  ASSERT_FALSE(entry.empty());
  std::string text;
  {
    std::ifstream in(entry);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  const std::size_t records = text.find("\nrecords ");
  ASSERT_NE(records, std::string::npos);
  const std::size_t end = text.find('\n', records + 1);
  text = text.substr(0, records) + "\nrecords 1152921504606846976" +
         text.substr(end);
  {
    std::ofstream out(entry, std::ios::trunc);
    out << text;
  }

  const DriverRun warm = Drive(args);
  EXPECT_EQ(warm.exit_code, 2);
  EXPECT_NE(warm.err.find(entry), std::string::npos) << warm.err;
  std::filesystem::remove_all(cache_dir);
}

TEST(DriverTest, OutDirWritesOneReportPerExperiment) {
  const std::string out_dir =
      (std::filesystem::path(::testing::TempDir()) /
       "vrddram_driver_out")
          .string();
  std::filesystem::remove_all(out_dir);
  const DriverRun direct = Drive({"run", "table01_population"});
  ASSERT_EQ(direct.exit_code, 0) << direct.err;

  const DriverRun filed = Drive(
      {"run", "table01_population", "--out_dir=" + out_dir});
  ASSERT_EQ(filed.exit_code, 0) << filed.err;
  EXPECT_TRUE(filed.out.empty());

  const std::string path =
      (std::filesystem::path(out_dir) / "table01_population.txt")
          .string();
  std::ifstream file(path);
  ASSERT_TRUE(file) << path;
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), direct.out);
  std::filesystem::remove_all(out_dir);
}

}  // namespace
}  // namespace vrddram::bench
