/**
 * @file
 * perfbench: the end-to-end reproduction benchmark harness.
 *
 * One process runs one workload against the library code, built in
 * Release, and prints one JSON line with everything `run.py` needs:
 * per-repetition wall and CPU time, per-report and per-campaign output
 * digests, failure counts, peak RSS, set-up times, and (with
 * `--trace`) the per-layer metrics of a traced pass.
 *
 *   perfbench --workload=W --seed=N --seconds=S --work=DIR
 *             [--trace] [--smoke]
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   repro_all       every registered experiment through bench::RunDriver
 *                   with a fresh --cache_dir and --out_dir per repetition
 *   reanalyze_warm  the campaign-backed experiments through
 *                   bench::RunDriver against a disk cache set-up filled
 *   campaign_cold   the campaign configs of those experiments through
 *                   core::RunCampaign, no cache, no analysis
 *
 * Untraced repetitions give the end-to-end numbers. `--trace` makes
 * one traced pass instead: it walks the same experiments through the
 * registry and the layers' public functions itself, with a span around
 * every call. On repro_all it then runs the layer probes (a warm cache
 * read-back, AnalyzeRowSeries, SimulateMix, RunGuardbandStudy) with the
 * inputs the owning experiments use, and the untraced/traced pairs of
 * trace.overhead_s. Spans are written to DIR/traced/spans.json. A fixed
 * calibration loop is timed before set-up, after set-up and at the end,
 * to measure the host's speed. Nothing here feeds a result path of the
 * program.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/driver.h"
#include "common/experiment.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/campaign_cache.h"
#include "core/guardband.h"
#include "core/min_rdt_mc.h"
#include "memsim/system.h"

namespace fs = std::filesystem;

namespace vrddram::perfbench {
namespace {

using bench::ExperimentRegistry;
using bench::ExperimentSpec;
using bench::Flags;

/// Worker count of every workload (the reference box's core count),
/// passed only to experiments that declare --threads.
constexpr char kThreads[] = "4";

/// Set-up repetitions per run; set-up time is their median. Each is a
/// smoke-scale warm-up of well under a second.
constexpr int kSetupReps = 5;

/// Untraced/traced pairs behind trace.overhead_s (see TraceOverhead).
constexpr int kOverheadPairs = 3;

/// Host-speed calibration: slices per thread per measurement and loop
/// steps per slice (about 20 ms each on the reference box).
constexpr int kCalibrationSlices = 3;
constexpr std::uint64_t kCalibrationSteps = 1 << 21;

/// Untraced repetitions stop once the next one would end past this
/// many seconds of measurement, so a run stays within its time limit.
constexpr double kMeasureBudgetS = 120.0;

struct Options {
  std::string workload;
  std::string seed;
  double seconds = 20.0;
  std::string work;
  bool trace = false;
  bool smoke = false;
};

// ---------------------------------------------------------------------
// Small utilities: timing, resource usage, hashing, JSON.

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a, 64-bit: output digests only, never a result path.
class Fnv64 {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  void String(const std::string& text) {
    Value(text.size());
    Bytes(text.data(), text.size());
  }
  std::string Hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Digest of everything a campaign records: series with their full
/// parameter key, plus each shard's identity and final state.
std::string DigestCampaign(const core::CampaignResult& result) {
  Fnv64 fnv;
  for (const core::SeriesRecord& record : result.records) {
    fnv.String(record.device);
    fnv.Value(record.row);
    fnv.Value(record.pattern);
    fnv.Value(record.t_on);
    fnv.Value(record.temperature);
    fnv.Value(record.rdt_guess);
    fnv.Value(record.series.size());
    fnv.Bytes(record.series.data(),
              record.series.size() * sizeof(record.series[0]));
  }
  for (const core::ShardStatus& shard : result.shards) {
    fnv.String(shard.device);
    fnv.Value(shard.temperature);
    fnv.Value(shard.state);
  }
  return fnv.Hex();
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// `text` as a quoted JSON string; error messages carry quotes and
/// newlines.
std::string JsonString(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
      quoted += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x", c);
      quoted += escape;
    } else {
      quoted += c;
    }
  }
  return quoted + '"';
}

/// Minimal JSON object writer for flat string/number members.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    text_ += text_.empty() ? '{' : ',';
    text_ += '"';
    text_ += key;
    text_ += "\":";
    text_ += json;
    return *this;
  }
  JsonObject& Number(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& String(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  std::string Str() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

std::string JsonArray(const std::vector<double>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      text += ',';
    }
    text += JsonNumber(values[i]);
  }
  return text + "]";
}

std::string JsonStringArray(const std::vector<std::string>& values) {
  std::string text = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      text += ',';
    }
    text += JsonString(values[i]);
  }
  return text + "]";
}

/// Nearest-rank percentile (p in (0, 100]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Host speed: the wall time of a fixed loop of integer,
/// floating-point and table work that this file owns, so no change to
/// the code under test moves it. It runs on kThreads threads at once,
/// so it samples every vCPU the workload uses. run.py corrects the
/// end-to-end times by the run's median slice.
class HostCalibration {
 public:
  /// Times kCalibrationSlices slices of the loop on each of kThreads
  /// threads.
  void Measure() {
    const int threads = std::stoi(kThreads);
    std::vector<std::vector<double>> times(threads);
    std::vector<double> sums(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&times, &sums, t] { times[t] = Slices(&sums[t]); });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    for (int t = 0; t < threads; ++t) {
      slices_.insert(slices_.end(), times[t].begin(), times[t].end());
      sink_ = sink_ + sums[t];  // keeps the loop from being optimized out
    }
  }
  const std::vector<double>& slices() const { return slices_; }

 private:
  static std::vector<double> Slices(double* sum_out) {
    std::vector<std::uint32_t> table(1 << 19);
    std::vector<double> times;
    double sum = 0.0;
    for (int i = 0; i < kCalibrationSlices; ++i) {
      const Stopwatch watch;
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      for (std::uint64_t step = 0; step < kCalibrationSteps; ++step) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t& slot = table[x & (table.size() - 1)];
        slot += static_cast<std::uint32_t>(x >> 40);
        sum += std::exp(-static_cast<double>(slot & 1023U) * 1e-3);
      }
      times.push_back(watch.Seconds());
    }
    *sum_out = sum;
    return times;
  }

  std::vector<double> slices_;
  volatile double sink_ = 0.0;
};

// ---------------------------------------------------------------------
// Experiment selection and flags.

// Declares and ExperimentFlags mirror the flag forwarding of
// bench/common/driver.cc (DeclaresFlag and the `run` loop); keep them
// in step with it.
bool Declares(const ExperimentSpec& spec, const std::string& key) {
  return std::any_of(spec.flags.begin(), spec.flags.end(),
                     [&](const bench::FlagSpec& f) { return f.name == key; });
}

/// The flags one experiment receives, in the driver's order: smoke
/// parameters first, then the forwarded --seed and --threads.
Flags ExperimentFlags(const ExperimentSpec& spec, const Options& options) {
  std::vector<std::string> args;
  if (options.smoke) {
    args = spec.smoke_args;
  }
  if (Declares(spec, "seed")) {
    args.push_back("--seed=" + options.seed);
  }
  if (Declares(spec, "threads")) {
    args.push_back(std::string("--threads=") + kThreads);
  }
  return Flags(args, spec.flags);
}

std::vector<const ExperimentSpec*> CampaignSpecs() {
  std::vector<const ExperimentSpec*> specs;
  for (const ExperimentSpec* spec : ExperimentRegistry::Instance().All()) {
    if (spec->build_campaign) {
      specs.push_back(spec);
    }
  }
  return specs;
}

std::vector<const ExperimentSpec*> WorkloadSpecs(const Options& options) {
  return options.workload == "repro_all"
             ? ExperimentRegistry::Instance().All()
             : CampaignSpecs();
}

std::vector<std::string> Names(
    const std::vector<const ExperimentSpec*>& specs) {
  std::vector<std::string> names;
  for (const ExperimentSpec* spec : specs) {
    names.push_back(spec->name);
  }
  return names;
}

/// Runs bench::RunDriver in-process with `run <selection> <args>`.
int Drive(const std::vector<std::string>& run_args, std::string* err_text) {
  std::vector<std::string> argv_store = {"vrdrepro", "run"};
  argv_store.insert(argv_store.end(), run_args.begin(), run_args.end());
  std::vector<const char*> argv;
  for (const std::string& arg : argv_store) {
    argv.push_back(arg.c_str());
  }
  std::ostringstream out;
  std::ostringstream err;
  const int rc = bench::RunDriver(static_cast<int>(argv.size()),
                                  argv.data(), out, err);
  *err_text = err.str();
  return rc;
}

std::vector<std::string> DriverArgs(const Options& options,
                                    const fs::path& cache_dir,
                                    const fs::path& out_dir) {
  std::vector<std::string> args;
  if (options.workload == "repro_all") {
    args.push_back("--all");
  } else {
    args = Names(CampaignSpecs());
  }
  if (options.smoke) {
    args.push_back("--smoke");
  }
  args.push_back("--seed=" + options.seed);
  args.push_back(std::string("--threads=") + kThreads);
  args.push_back("--cache_dir=" + cache_dir.string());
  args.push_back("--out_dir=" + out_dir.string());
  return args;
}

// ---------------------------------------------------------------------
// One repetition's outcome.

struct RepResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::string> digests;  ///< report or campaign
  std::map<std::string, double> counters;      ///< deterministic work
  std::vector<std::string> errors;

  std::string Json() const {
    JsonObject digest_json;
    for (const auto& [name, digest] : digests) {
      digest_json.String(name, digest);
    }
    JsonObject counter_json;
    for (const auto& [name, value] : counters) {
      counter_json.Number(name, value);
    }
    return JsonObject()
        .Number("wall_s", wall_s)
        .Number("cpu_s", cpu_s)
        .Number("attempted", static_cast<double>(attempted))
        .Number("failed", static_cast<double>(failed))
        .Raw("digests", digest_json.Str())
        .Raw("counters", counter_json.Str())
        .Raw("errors", JsonStringArray(errors))
        .Str();
  }
};

/// Hashes every expected report under `out_dir`; a missing or empty
/// report is a failed experiment.
void CollectReports(const std::vector<std::string>& names,
                    const fs::path& out_dir, RepResult* rep) {
  rep->attempted += names.size();
  for (const std::string& name : names) {
    const fs::path path = out_dir / (name + ".txt");
    const std::string report = fs::exists(path) ? ReadFile(path) : "";
    if (report.empty()) {
      ++rep->failed;
      rep->errors.push_back("missing or empty report " + name);
      continue;
    }
    Fnv64 fnv;
    fnv.Bytes(report.data(), report.size());
    rep->digests["report/" + name] = fnv.Hex();
    std::size_t checks = 0;
    for (std::size_t at = report.find("CHECK "); at != std::string::npos;
         at = report.find("CHECK ", at + 1)) {
      ++checks;
    }
    rep->counters["report_bytes"] += static_cast<double>(report.size());
    rep->counters["check_lines"] += static_cast<double>(checks);
  }
}

/// Parses "hits=H misses=M stores=S" from the driver's last cache line.
std::map<std::string, double> ParseCacheLine(const std::string& err) {
  std::map<std::string, double> stats;
  const std::size_t line = err.rfind("vrdrepro: cache ");
  if (line == std::string::npos) {
    return stats;
  }
  std::istringstream in(err.substr(line + 16));
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      stats["cache_" + token.substr(0, eq)] =
          std::stod(token.substr(eq + 1));
    }
  }
  return stats;
}

// ---------------------------------------------------------------------
// Untraced repetitions.

RepResult DriverRep(const Options& options, const fs::path& cache_dir,
                    const fs::path& out_dir) {
  RepResult rep;
  std::string err;
  int rc = 0;
  const Stopwatch watch;
  const double cpu0 = CpuSeconds();
  try {
    rc = Drive(DriverArgs(options, cache_dir, out_dir), &err);
  } catch (const std::exception& e) {
    rc = -1;
    err += e.what();
  }
  rep.cpu_s = CpuSeconds() - cpu0;
  rep.wall_s = watch.Seconds();
  if (rc != 0) {
    rep.errors.push_back("driver exit " + std::to_string(rc) + ": " +
                         err.substr(0, 200));
  }
  CollectReports(Names(WorkloadSpecs(options)), out_dir, &rep);
  for (const auto& [name, value] : ParseCacheLine(err)) {
    rep.counters[name] = value;
  }
  // A warm re-analysis that had to execute a campaign did not read the
  // cache it was set up with.
  if (options.workload == "reanalyze_warm" &&
      rep.counters["cache_misses"] > 0) {
    rep.failed += static_cast<std::size_t>(rep.counters["cache_misses"]);
    rep.errors.push_back("warm cache missed");
  }
  if (rc != 0 && rep.failed == 0) {
    rep.failed = rep.attempted;
  }
  return rep;
}

std::vector<core::CampaignConfig> CampaignConfigs(const Options& options) {
  std::vector<core::CampaignConfig> configs;
  for (const ExperimentSpec* spec : CampaignSpecs()) {
    configs.push_back(spec->build_campaign(ExperimentFlags(*spec, options)));
  }
  return configs;
}

void CountCampaign(const std::string& name,
                   const core::CampaignResult& result, RepResult* rep) {
  rep->digests["campaign/" + name] = DigestCampaign(result);
  rep->attempted += result.shards.size();
  double measurements = 0.0;
  for (const core::SeriesRecord& record : result.records) {
    measurements += static_cast<double>(record.series.size());
  }
  rep->counters["shards"] += static_cast<double>(result.shards.size());
  rep->counters["series"] += static_cast<double>(result.records.size());
  rep->counters["measurements"] += measurements;
  for (const core::ShardStatus& shard : result.shards) {
    if (shard.state == core::ShardState::kQuarantined) {
      ++rep->failed;
      rep->errors.push_back("quarantined shard " + name + " " +
                            shard.device);
    }
  }
}

RepResult CampaignRep(const Options& options) {
  RepResult rep;
  const std::vector<const ExperimentSpec*> specs = CampaignSpecs();
  const std::vector<core::CampaignConfig> configs = CampaignConfigs(options);
  std::vector<core::CampaignResult> results(configs.size());
  const Stopwatch watch;
  const double cpu0 = CpuSeconds();
  try {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = core::RunCampaign(configs[i]);
    }
  } catch (const std::exception& e) {
    rep.errors.push_back(e.what());
  }
  rep.cpu_s = CpuSeconds() - cpu0;
  rep.wall_s = watch.Seconds();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    CountCampaign(specs[i]->name, results[i], &rep);
  }
  if (!rep.errors.empty() && rep.failed == 0) {
    rep.failed = std::max<std::size_t>(rep.attempted, 1);
  }
  return rep;
}

/// Fills `cache_dir` with every campaign experiment's result; the
/// set-up of reanalyze_warm.
void FillCache(const Options& options, const fs::path& cache_dir) {
  core::CampaignCache cache(cache_dir.string());
  for (const core::CampaignConfig& config : CampaignConfigs(options)) {
    VRD_FATAL_IF(!cache.Store(config, core::RunCampaign(config)),
                 "set-up campaign has quarantined shards");
  }
}

/// Runs `body` in a forked child and waits for it, so the child's
/// memory and CPU time stay out of this process's figures. Called
/// while this process runs no other thread.
void InChild(const std::function<void()>& body) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  VRD_FATAL_IF(pid < 0, "fork failed");
  if (pid == 0) {
    int rc = 0;
    try {
      body();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: set-up: " << e.what() << '\n';
      rc = 1;
    }
    std::cerr.flush();
    _exit(rc);
  }
  int status = 0;
  VRD_FATAL_IF(waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
                   WEXITSTATUS(status) != 0,
               "set-up child failed");
}

Options AtSmokeScale(Options options) {
  options.smoke = true;
  return options;
}

/// Set-up, repeated kSetupReps times; returns each repetition's
/// seconds. reanalyze_warm leaves its filled cache at `cache_dir`.
std::vector<double> SetUp(const Options& options, const fs::path& cache_dir) {
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    const fs::path dir = options.work + "/setup" + std::to_string(i);
    fs::remove_all(dir);
    fs::remove_all(cache_dir);
    const Stopwatch watch;
    if (options.workload == "repro_all") {
      // Warm-up: the whole registry once at smoke scale. A failing
      // experiment fails the measured pass too, which counts it.
      std::string err;
      Drive({"--all", "--smoke", "--no-cache", "--seed=" + options.seed,
             std::string("--threads=") + kThreads,
             "--out_dir=" + dir.string()},
            &err);
    } else if (options.workload == "reanalyze_warm") {
      // The fill holds every campaign result at some point; in a child
      // its memory does not count toward the re-analysis's peak RSS.
      InChild([&] { FillCache(options, cache_dir); });
    } else {
      // Warm-up: every campaign once, at smoke scale.
      for (const core::CampaignConfig& config :
           CampaignConfigs(AtSmokeScale(options))) {
        core::RunCampaign(config);
      }
    }
    times.push_back(watch.Seconds());
    fs::remove_all(dir);
  }
  return times;
}

RepResult UntracedRep(const Options& options, const fs::path& cache_dir,
                      const fs::path& rep_dir) {
  if (options.workload == "campaign_cold") {
    return CampaignRep(options);
  }
  if (options.workload == "repro_all") {
    return DriverRep(options, rep_dir / "cache", rep_dir / "out");
  }
  return DriverRep(options, cache_dir, rep_dir / "out");
}

// ---------------------------------------------------------------------
// Traced pass: spans around each call into a layer's public function.

struct Span {
  std::string name;
  std::string parent;
  double start_s = 0.0;
  double end_s = 0.0;
  double Seconds() const { return end_s - start_s; }
};

class Tracer {
 public:
  /// Runs `body` inside a span named `name` under `parent`; returns
  /// the span's duration.
  template <typename Body>
  double Time(const std::string& name, const std::string& parent,
              Body&& body) {
    Span span{name, parent, clock_.Seconds(), 0.0};
    body();
    span.end_s = clock_.Seconds();
    spans_.push_back(span);
    return span.Seconds();
  }

  void Write(const fs::path& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out << (i == 0 ? "" : ",\n")
          << JsonObject()
                 .String("name", spans_[i].name)
                 .String("parent", spans_[i].parent)
                 .Number("start_s", spans_[i].start_s)
                 .Number("end_s", spans_[i].end_s)
                 .Str();
    }
    out << "\n]\n";
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
};

/// Shard lines of RunCampaign's progress stream,
/// "campaign: DEV @ T degC: R rows, S series, M measurements in X s ...",
/// and its closing "campaign: done: ... measurements in X s wall ...".
struct CampaignProgress {
  std::vector<double> shard_s;
  double wall_s = 0.0;
};

CampaignProgress ParseProgress(const std::string& progress) {
  CampaignProgress parsed;
  std::istringstream in(progress);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(" measurements in ");
    if (at == std::string::npos) {
      continue;
    }
    const double seconds = std::stod(line.substr(at + 17));
    if (line.rfind("campaign: done:", 0) == 0) {
      parsed.wall_s += seconds;
    } else {
      parsed.shard_s.push_back(seconds);
    }
  }
  return parsed;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

using Metrics = std::map<std::string, double>;

/// Per-experiment Monte Carlo settings and stream seeds of the
/// min-RDT analyses, as each experiment's Analyze sets them up.
struct MinRdtProbeSpec {
  const char* experiment;
  std::vector<std::size_t> sample_sizes;  ///< empty: MinRdtSettings's
  std::uint64_t seed_xor;
  bool pool;  ///< analysis fans out over a pool of config.threads
};

const std::vector<MinRdtProbeSpec>& MinRdtProbeSpecs() {
  static const std::vector<MinRdtProbeSpec> specs = {
      {"fig08_min_rdt_probability", {}, 0xf18, true},
      {"fig09_density_die_rev", {}, 0xf19, false},
      {"fig10_data_pattern", {}, 0xf1a, false},
      {"fig11_taggon", {}, 0xf1b, false},
      {"fig12_temperature", {1}, 0xf1c, false},
      {"fig15_guardband_probability", {}, 0xf15, false},
      {"table07_module_summary", {1, 5, 50, 500}, 0x707, false},
  };
  return specs;
}

/// Calls into core::CampaignCache, from the pass and the probes.
struct CacheCounters {
  double hits = 0.0;
  double misses = 0.0;
  double stores = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  double hit_lookup_s = 0.0;  ///< lookup time of the hits alone
  double store_s = 0.0;

  void AddStats(const core::CampaignCacheStats& stats) {
    hits += static_cast<double>(stats.hits);
    misses += static_cast<double>(stats.misses);
    stores += static_cast<double>(stats.stores);
  }
};

/// Runs core::AnalyzeRowSeries over `records` with the settings,
/// stream seed and pool of `probe`'s experiment; returns the computed
/// draw count (iterations x sum of sample sizes x rows).
double ProbeMinRdt(const MinRdtProbeSpec& probe, const Flags& flags,
                   const core::CampaignConfig& config,
                   const std::vector<core::SeriesRecord>& records,
                   Tracer* tracer, Metrics* m) {
  core::MinRdtSettings settings;
  if (!probe.sample_sizes.empty()) {
    settings.sample_sizes = probe.sample_sizes;
  }
  settings.iterations = static_cast<std::size_t>(flags.GetUint("iters"));
  std::unique_ptr<ThreadPool> pool;
  if (probe.pool && config.threads != 1) {
    pool = std::make_unique<ThreadPool>(config.threads);
  }
  Rng rng(config.base_seed ^ probe.seed_xor);
  const std::string name = std::string("probe.") + probe.experiment;
  (*m)[name + ".self_s"] = tracer->Time(name, "probe", [&] {
    core::RowMinRdtResult out;
    core::MinRdtScratch scratch;
    for (const core::SeriesRecord& record : records) {
      core::AnalyzeRowSeries(record.series, settings, rng, out, scratch,
                             pool.get());
    }
  });
  std::size_t size_sum = 0;
  for (const std::size_t n : settings.sample_sizes) {
    size_sum += n;
  }
  return static_cast<double>(settings.iterations) *
         static_cast<double>(size_sum) * static_cast<double>(records.size());
}

/// Probe: read every campaign experiment's entry back from the disk
/// cache the pass filled, through a fresh CampaignCache as a warm
/// re-analysis does, and run the min-RDT probe over the records of
/// each experiment that analyzes them with core::AnalyzeRowSeries.
void ProbeWarmCache(const Options& options, const fs::path& dir,
                    Tracer* tracer, Metrics* m, CacheCounters* cache,
                    RepResult* rep) {
  double calls = 0.0;
  double draws = 0.0;
  double busy = 0.0;
  for (const ExperimentSpec* spec : CampaignSpecs()) {
    const Flags flags = ExperimentFlags(*spec, options);
    const core::CampaignConfig config = spec->build_campaign(flags);
    core::CampaignCache reader(dir.string());
    std::optional<core::CampaignResult> result;
    cache->hit_lookup_s += tracer->Time(
        "core.campaign_cache.lookup", "probe",
        [&] { result = reader.Lookup(config); });
    cache->AddStats(reader.stats());
    ++rep->attempted;
    if (!result) {
      // The pass stores no result with quarantined shards; that shard
      // already counts as failed, and so does this read-back.
      ++rep->failed;
      rep->errors.push_back("no cached campaign for " + spec->name);
      continue;
    }
    cache->bytes_read +=
        static_cast<double>(FileBytes(reader.EntryPath(config)));

    for (const MinRdtProbeSpec& probe : MinRdtProbeSpecs()) {
      if (spec->name == probe.experiment) {
        draws += ProbeMinRdt(probe, flags, config, result->records, tracer,
                             m);
        calls += static_cast<double>(result->records.size());
        busy += (*m)[std::string("probe.") + probe.experiment + ".self_s"];
      }
    }
  }
  (*m)["core.min_rdt_mc.calls"] = calls;
  (*m)["core.min_rdt_mc.busy_s"] = busy;
  (*m)["core.min_rdt_mc.draws_computed"] = draws;
  (*m)["core.min_rdt_mc.ns_per_draw"] = draws > 0 ? busy / draws * 1e9 : 0;
}

/// Probe: memsim::SimulateMix over fig14's mixes and configurations,
/// in fig14's call order.
void ProbeMemsim(const Options& options, Tracer* tracer, Metrics* m) {
  const ExperimentSpec* spec =
      ExperimentRegistry::Instance().Find("fig14_mitigation_overhead");
  VRD_FATAL_IF(spec == nullptr, "probe experiment missing: fig14");
  const Flags flags = ExperimentFlags(*spec, options);
  const auto requests = static_cast<std::size_t>(flags.GetUint("requests"));
  const auto num_mixes = static_cast<std::size_t>(flags.GetUint("mixes"));
  const std::uint64_t seed = flags.GetUint("seed");
  const memsim::Scheduler scheduler = flags.GetBool("frfcfs")
                                          ? memsim::Scheduler::kFrFcfs
                                          : memsim::Scheduler::kInOrder;
  const std::pair<std::uint64_t, double> configs[] = {
      {1024, 0.0}, {1024, 0.10}, {1024, 0.25}, {1024, 0.50},
      {128, 0.0},  {128, 0.10},  {128, 0.25},  {128, 0.50}};
  const memsim::MitigationKind kinds[] = {
      memsim::MitigationKind::kGraphene, memsim::MitigationKind::kPrac,
      memsim::MitigationKind::kPara, memsim::MitigationKind::kMint};
  auto mixes = memsim::MakeHighMemoryIntensityMixes(42);
  if (mixes.size() > num_mixes) {
    mixes.resize(num_mixes);
  }

  double calls = 0.0;
  double simulated = 0.0;
  double activations = 0.0;
  double preventive = 0.0;
  const auto simulate = [&](std::size_t mix, const memsim::SystemConfig& sc) {
    const memsim::SystemResult result = memsim::SimulateMix(mixes[mix], sc);
    calls += 1.0;
    simulated += static_cast<double>(result.total_requests);
    activations += static_cast<double>(result.activations);
    preventive += static_cast<double>(result.preventive_actions);
  };
  const auto base_config = [&](std::size_t mix) {
    memsim::SystemConfig sc;
    sc.requests_per_core = requests;
    sc.seed = seed + mix;
    sc.scheduler = scheduler;
    return sc;
  };
  const double busy = tracer->Time("probe.fig14_mitigation_overhead",
                                   "probe", [&] {
    for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
      simulate(mix, base_config(mix));
    }
    for (const auto& [base_rdt, margin] : configs) {
      for (const memsim::MitigationKind kind : kinds) {
        for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
          memsim::SystemConfig sc = base_config(mix);
          sc.mitigation = kind;
          sc.rdt = static_cast<std::uint64_t>(
              static_cast<double>(base_rdt) * (1.0 - margin));
          simulate(mix, sc);
        }
      }
    }
    memsim::SystemConfig sc = base_config(0);
    sc.seed = seed;
    simulate(0, sc);
    sc.mitigation = memsim::MitigationKind::kMint;
    sc.rdt = 64;
    simulate(0, sc);
  });
  (*m)["probe.fig14_mitigation_overhead.self_s"] = busy;
  (*m)["memsim.calls"] = calls;
  (*m)["memsim.simulated_requests"] = simulated;
  (*m)["memsim.host_ns_per_request"] =
      simulated > 0 ? busy / simulated * 1e9 : 0.0;
  (*m)["memsim.activations"] = activations;
  (*m)["memsim.preventive_actions"] = preventive;
}

/// Probe: core::RunGuardbandStudy with fig16's configuration.
void ProbeGuardband(const Options& options, Tracer* tracer, Metrics* m) {
  const ExperimentSpec* spec =
      ExperimentRegistry::Instance().Find("fig16_guardband_bitflips");
  VRD_FATAL_IF(spec == nullptr, "probe experiment missing: fig16");
  const Flags flags = ExperimentFlags(*spec, options);
  core::GuardbandConfig config;
  config.devices = bench::ResolveDevices(flags.GetString("devices"));
  config.rows_per_device = static_cast<std::size_t>(flags.GetUint("rows"));
  config.trials = static_cast<std::size_t>(flags.GetUint("trials"));
  config.base_seed = flags.GetUint("seed");
  config.scan_rows_per_region =
      static_cast<std::size_t>(flags.GetUint("scan"));
  std::size_t row_patterns = 0;
  const double busy =
      tracer->Time("probe.fig16_guardband_bitflips", "probe", [&] {
        row_patterns = core::RunGuardbandStudy(config).size();
      });
  const double trials = static_cast<double>(row_patterns) *
                        static_cast<double>(config.margins.size()) *
                        static_cast<double>(config.trials);
  (*m)["probe.fig16_guardband_bitflips.self_s"] = busy;
  (*m)["core.guardband.busy_s"] = busy;
  (*m)["core.guardband.row_patterns"] = static_cast<double>(row_patterns);
  (*m)["core.guardband.trials"] = trials;
  (*m)["core.guardband.host_us_per_trial"] =
      trials > 0 ? busy / trials * 1e6 : 0.0;
}

/// Every per-layer metric name, so each traced run reports the same
/// set: layers a workload does not exercise read 0.
Metrics ZeroMetrics() {
  Metrics m;
  for (const ExperimentSpec* spec : ExperimentRegistry::Instance().All()) {
    m["bench." + spec->name + ".analyze_s"] = 0.0;
    if (spec->build_campaign) {
      m["bench." + spec->name + ".campaign_s"] = 0.0;
    }
  }
  for (const MinRdtProbeSpec& probe : MinRdtProbeSpecs()) {
    m[std::string("probe.") + probe.experiment + ".self_s"] = 0.0;
  }
  for (const char* name :
       {"bench.critical_path_s", "core.campaign.busy_s",
        "core.campaign.shards", "core.campaign.attempts",
        "core.campaign.quarantined", "core.campaign.series",
        "core.campaign.measurements", "core.campaign.measurements_per_s",
        "core.campaign.shard_p50_s", "core.campaign.shard_p95_s",
        "core.campaign.parallelism", "core.campaign_cache.lookup_s",
        "core.campaign_cache.store_s", "core.campaign_cache.hits",
        "core.campaign_cache.misses", "core.campaign_cache.stores",
        "core.campaign_cache.bytes_read", "core.campaign_cache.bytes_written",
        "core.campaign_cache.load_mb_per_s", "core.min_rdt_mc.calls",
        "core.min_rdt_mc.busy_s", "core.min_rdt_mc.draws_computed",
        "core.min_rdt_mc.ns_per_draw", "memsim.calls",
        "memsim.simulated_requests", "memsim.host_ns_per_request",
        "memsim.activations", "memsim.preventive_actions",
        "core.guardband.busy_s", "core.guardband.row_patterns",
        "core.guardband.trials", "core.guardband.host_us_per_trial",
        "probe.fig14_mitigation_overhead.self_s",
        "probe.fig16_guardband_bitflips.self_s", "trace.overhead_s",
        "trace.unaccounted_s"}) {
    m[name] = 0.0;
  }
  return m;
}

/// Work counters of the campaigns a traced pass executed.
struct CampaignWork {
  double series = 0.0;
  double measurements = 0.0;
  double attempts = 0.0;
  double quarantined = 0.0;

  void Add(const core::CampaignResult& result) {
    series += static_cast<double>(result.records.size());
    for (const core::SeriesRecord& record : result.records) {
      measurements += static_cast<double>(record.series.size());
    }
    for (const core::ShardStatus& shard : result.shards) {
      attempts += static_cast<double>(shard.attempts);
      quarantined += shard.state == core::ShardState::kQuarantined ? 1 : 0;
    }
  }
};

/// The traced pass of one workload, then, when `probes` is set and the
/// workload is repro_all, the layer probes. Reports and campaign
/// digests land in `rep` like an untraced repetition's.
///
/// The pass is the `run` loop of bench/common/driver.cc, walked here so
/// that each experiment's campaign and analysis get a span of their
/// own: the same flags, RunCampaignCached over one cache shared by the
/// pass, then `analyze` into the report file. When that loop changes,
/// check this one against it.
Metrics TracedPass(const Options& options, const fs::path& cache_dir,
                   const fs::path& rep_dir, bool probes, RepResult* rep) {
  Metrics m = ZeroMetrics();
  Tracer tracer;
  const fs::path out_dir = rep_dir / "out";
  fs::create_directories(out_dir);
  const fs::path pass_cache_dir = options.workload == "reanalyze_warm"
                                      ? cache_dir
                                      : rep_dir / "cache";
  const bool use_cache = options.workload != "campaign_cold";

  CacheCounters cache_counters;
  CampaignWork executed;  // campaigns this pass ran, not cache hits
  std::vector<double> shard_seconds;
  double run_s = 0.0;
  double shard_sum = 0.0;
  double critical = 0.0;
  double accounted = 0.0;
  double digest_s = 0.0;
  double digest_cpu_s = 0.0;
  std::vector<std::string> analyzed;

  const Stopwatch watch;
  const double cpu0 = CpuSeconds();
  core::CampaignCache cache(pass_cache_dir.string());
  for (const ExperimentSpec* spec : WorkloadSpecs(options)) {
    const std::string prefix = "bench." + spec->name;
    const Flags flags = ExperimentFlags(*spec, options);
    core::CampaignResult result;
    double experiment_s = 0.0;
    if (spec->build_campaign) {
      const core::CampaignConfig config = spec->build_campaign(flags);
      const core::CampaignCacheStats before = cache.stats();
      std::ostringstream progress;
      const double campaign_s = tracer.Time(prefix + ".campaign", "", [&] {
        try {
          result = core::RunCampaignCached(
              config, use_cache ? &cache : nullptr, nullptr, &progress);
        } catch (const std::exception& e) {
          ++rep->failed;
          rep->errors.push_back(spec->name + ": " + e.what());
        }
      });
      // One span covers lookup, run and store; the cache's counters
      // and the campaign's own progress stream split it.
      const core::CampaignCacheStats& after = cache.stats();
      const std::string entry = cache.EntryPath(config);
      if (after.hits > before.hits) {
        cache_counters.hit_lookup_s += campaign_s;
        cache_counters.bytes_read += static_cast<double>(FileBytes(entry));
      } else {
        const CampaignProgress ran = ParseProgress(progress.str());
        run_s += ran.wall_s;
        executed.Add(result);
        for (const double seconds : ran.shard_s) {
          shard_seconds.push_back(seconds);
          shard_sum += seconds;
        }
        if (after.stores > before.stores) {
          cache_counters.store_s += campaign_s - ran.wall_s;
          cache_counters.bytes_written +=
              static_cast<double>(FileBytes(entry));
        }
      }
      m[prefix + ".campaign_s"] = campaign_s;
      experiment_s += campaign_s;
      // Digesting is the harness's own work: it stays out of the pass's
      // times, as it does in an untraced repetition.
      const Stopwatch digest_watch;
      const double digest_cpu0 = CpuSeconds();
      CountCampaign(spec->name, result, rep);
      digest_s += digest_watch.Seconds();
      digest_cpu_s += CpuSeconds() - digest_cpu0;
    }
    if (options.workload != "campaign_cold") {
      const fs::path report_path = out_dir / (spec->name + ".txt");
      const double analyze_s = tracer.Time(prefix + ".analyze", "", [&] {
        try {
          std::ofstream file(report_path, std::ios::trunc);
          bench::Report report{file, flags};
          spec->analyze(result, &report);
        } catch (const std::exception& e) {
          // CollectReports counts the missing report as the failure.
          rep->errors.push_back(spec->name + ": " + e.what());
          fs::remove(report_path);
        }
      });
      m[prefix + ".analyze_s"] = analyze_s;
      experiment_s += analyze_s;
      analyzed.push_back(spec->name);
    }
    critical = std::max(critical, experiment_s);
    accounted += experiment_s;
  }
  rep->cpu_s = CpuSeconds() - cpu0 - digest_cpu_s;
  rep->wall_s = watch.Seconds() - digest_s;
  cache_counters.AddStats(cache.stats());
  CollectReports(analyzed, out_dir, rep);

  // The probes run after the pass, outside its wall time, on the one
  // workload that runs all of their owning experiments.
  if (probes && options.workload == "repro_all") {
    ProbeWarmCache(options, pass_cache_dir, &tracer, &m, &cache_counters,
                   rep);
    ProbeMemsim(options, &tracer, &m);
    ProbeGuardband(options, &tracer, &m);
  }
  tracer.Write(rep_dir / "spans.json");

  m["bench.critical_path_s"] = critical;
  m["core.campaign.busy_s"] = run_s;
  m["core.campaign.shards"] = static_cast<double>(shard_seconds.size());
  m["core.campaign.attempts"] = executed.attempts;
  m["core.campaign.quarantined"] = executed.quarantined;
  m["core.campaign.series"] = executed.series;
  m["core.campaign.measurements"] = executed.measurements;
  m["core.campaign.measurements_per_s"] =
      run_s > 0 ? executed.measurements / run_s : 0.0;
  m["core.campaign.shard_p50_s"] = Percentile(shard_seconds, 50.0);
  m["core.campaign.shard_p95_s"] = Percentile(shard_seconds, 95.0);
  m["core.campaign.parallelism"] = run_s > 0 ? shard_sum / run_s : 0.0;
  m["core.campaign_cache.lookup_s"] = cache_counters.hit_lookup_s;
  m["core.campaign_cache.store_s"] = cache_counters.store_s;
  m["core.campaign_cache.hits"] = cache_counters.hits;
  m["core.campaign_cache.misses"] = cache_counters.misses;
  m["core.campaign_cache.stores"] = cache_counters.stores;
  m["core.campaign_cache.bytes_read"] = cache_counters.bytes_read;
  m["core.campaign_cache.bytes_written"] = cache_counters.bytes_written;
  m["core.campaign_cache.load_mb_per_s"] =
      cache_counters.hit_lookup_s > 0
          ? cache_counters.bytes_read / 1e6 / cache_counters.hit_lookup_s
          : 0.0;
  m["trace.unaccounted_s"] = rep->wall_s - accounted;
  return m;
}

/// Folds a pass that only serves a timing into `into`: its failures
/// count, its outputs are not kept.
void AddFailures(const RepResult& pass, RepResult* into) {
  into->attempted += pass.attempted;
  into->failed += pass.failed;
  into->errors.insert(into->errors.end(), pass.errors.begin(),
                      pass.errors.end());
}

/// trace.overhead_s: the median difference between the walls of a
/// traced pass and of an untraced repetition made just before it, in
/// the same run. campaign_cold makes kOverheadPairs pairs at its own
/// scale. A default-scale repro_all pair would not fit one run beside
/// the probes, so repro_all makes its pairs at smoke scale, which make
/// the same calls and spans over less work. reanalyze_warm, at about
/// 40 s a pass, makes one pair. The pairs' outputs are not kept; their
/// failures count in `traced`.
double TraceOverhead(const Options& options, const fs::path& cache_dir,
                     RepResult* traced) {
  const Options pair_options =
      options.workload == "repro_all" ? AtSmokeScale(options) : options;
  const int pairs = options.workload == "reanalyze_warm" ? 1 : kOverheadPairs;
  const fs::path dir = fs::path(options.work) / "pair";
  std::vector<double> differences;
  for (int i = 0; i < pairs; ++i) {
    fs::remove_all(dir);
    const RepResult plain = UntracedRep(pair_options, cache_dir, dir);
    fs::remove_all(dir);
    RepResult spanned;
    TracedPass(pair_options, cache_dir, dir, /*probes=*/false, &spanned);
    AddFailures(plain, traced);
    AddFailures(spanned, traced);
    differences.push_back(spanned.wall_s - plain.wall_s);
  }
  fs::remove_all(dir);
  return Percentile(differences, 50.0);
}

// ---------------------------------------------------------------------

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = value;
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--work") {
      options.work = value;
    } else if (key == "--trace") {
      options.trace = true;
    } else if (key == "--smoke") {
      options.smoke = true;
    } else {
      VRD_FATAL_IF(true, "unknown argument " + arg);
    }
  }
  VRD_FATAL_IF(options.workload != "repro_all" &&
                   options.workload != "reanalyze_warm" &&
                   options.workload != "campaign_cold",
               "unknown --workload '" + options.workload + "'");
  VRD_FATAL_IF(options.seed.empty() ||
                   options.seed.find_first_not_of("0123456789") !=
                       std::string::npos,
               "--seed must be a non-negative integer");
  VRD_FATAL_IF(options.work.empty(), "--work=DIR is required");
  return options;
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  fs::create_directories(options.work);
  const fs::path cache_dir = fs::path(options.work) / "warm_cache";
  HostCalibration host;
  host.Measure();

  const std::vector<double> setup = SetUp(options, cache_dir);
  host.Measure();

  // Untraced repetitions until --seconds of measurement, at least one;
  // a traced run makes only its traced pass and overhead pairs. Peak
  // RSS is read after the first repetition: later ones only repeat the
  // workload, and how many fit depends on the host's speed.
  std::vector<RepResult> reps;
  double measured = 0.0;
  double peak_rss_mb = 0.0;
  while (!options.trace &&
         (reps.empty() || (measured < options.seconds &&
                           measured + reps.back().wall_s < kMeasureBudgetS))) {
    const fs::path rep_dir =
        fs::path(options.work) / ("rep" + std::to_string(reps.size()));
    fs::remove_all(rep_dir);
    reps.push_back(UntracedRep(options, cache_dir, rep_dir));
    measured += reps.back().wall_s;
    fs::remove_all(rep_dir);
    if (reps.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
  }
  host.Measure();

  JsonObject out;
  out.String("workload", options.workload)
      .String("seed", options.seed)
      .Raw("setup_s", JsonArray(setup));
  if (options.trace) {
    const fs::path rep_dir = fs::path(options.work) / "traced";
    fs::remove_all(rep_dir);
    RepResult traced;
    Metrics metrics =
        TracedPass(options, cache_dir, rep_dir, /*probes=*/true, &traced);
    fs::remove_all(rep_dir / "out");
    fs::remove_all(rep_dir / "cache");
    metrics["trace.overhead_s"] = TraceOverhead(options, cache_dir, &traced);
    host.Measure();
    peak_rss_mb = PeakRssMb();
    JsonObject metric_json;
    for (const auto& [name, value] : metrics) {
      metric_json.Number(name, value);
    }
    out.Raw("traced", traced.Json()).Raw("per_layer", metric_json.Str());
  }
  std::string rep_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) {
      rep_json += ',';
    }
    rep_json += reps[i].Json();
  }
  out.Raw("reps", rep_json + "]")
      .Raw("calibration_s", JsonArray(host.slices()))
      .Number("peak_rss_mb", peak_rss_mb);
  fs::remove_all(cache_dir);
  std::cout << out.Str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace vrddram::perfbench

int main(int argc, char** argv) {
  try {
    return vrddram::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
