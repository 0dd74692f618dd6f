/**
 * @file
 * Declarative experiment registry for the figure/table reproductions.
 *
 * Each figure or table of the paper is one `ExperimentSpec`: a name,
 * a one-line description, the flag schema with defaults, an optional
 * campaign builder, and an analysis function that renders the tables
 * and CHECK lines. Specs live in one file each under
 * `bench/experiments/` and self-register at static-initialization
 * time; the `vrdrepro` driver (bench/common/driver.h) is the only
 * main() over them.
 *
 * The eight campaign experiments (fig07-fig12, fig15, table07) run
 * the paper's one §5 procedure and vary one test parameter each, so
 * the procedure is declared here once: a `CampaignProcedure` gives
 * their shared flags and builds their `core::CampaignConfig`, and
 * `AnalyzeMinRdt` is the min-RDT step of the seven that ask how likely
 * N measurements are to find a row's minimum RDT. An experiment file
 * keeps only its varied axis, its defaults, its salt, its sample sizes
 * and its tables and CHECK lines.
 *
 * The split between `build_campaign` and `analyze` is what lets the
 * driver skip measurement work across runs: with `--cache_dir` it
 * resolves each campaign through an on-disk `core::CampaignCache`
 * keyed by the result-defining config hash, so a later run with the
 * same directory loads the stored `CampaignResult` and only re-runs
 * `analyze`. No two registered experiments build the same campaign.
 */
#ifndef VRDDRAM_BENCH_COMMON_EXPERIMENT_H
#define VRDDRAM_BENCH_COMMON_EXPERIMENT_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_util.h"
#include "core/campaign.h"
#include "core/min_rdt_mc.h"

namespace vrddram::bench {

/// Destination for everything an experiment reports: the stream that
/// replaces the old per-binary stdout, plus the parsed flags so
/// analysis knobs (iteration counts, CSV paths, margins) stay
/// reachable from Analyze.
struct Report {
  std::ostream& out;
  const Flags& flags;
};

struct ExperimentSpec {
  /// Registry key, e.g. "fig10_data_pattern" — the old standalone
  /// binary name without the "bench_" prefix.
  std::string name;

  /// One-line summary shown by `vrdrepro list`.
  std::string description;

  /// Every knob the experiment accepts. Campaign experiments take
  /// theirs from CampaignProcedure::Schema.
  std::vector<FlagSpec> flags;

  /// Tiny-parameter invocation used by `vrdrepro run --smoke` and the
  /// ctest smoke entries ("--key=value" tokens).
  std::vector<std::string> smoke_args;

  /// Builds the campaign request from parsed flags. Experiments that
  /// measure nothing (catalog tables, single-device sweeps) leave
  /// this empty and receive an empty CampaignResult.
  std::function<core::CampaignConfig(const Flags&)> build_campaign;

  /// Renders the experiment's tables, figures, and CHECK lines from
  /// the (possibly cached) campaign result.
  std::function<void(const core::CampaignResult&, Report*)> analyze;
};

/**
 * The process-wide experiment registry. Specs register through
 * VRD_REGISTER_EXPERIMENT; lookups are by exact name and All() is
 * sorted by name, so `vrdrepro run --all` order is deterministic.
 */
class ExperimentRegistry {
 public:
  static ExperimentRegistry& Instance();

  /// Raises FatalError on a duplicate or empty name.
  void Register(ExperimentSpec spec);

  /// nullptr when no experiment has that name.
  const ExperimentSpec* Find(const std::string& name) const;

  /// All registered specs, sorted by name.
  std::vector<const ExperimentSpec*> All() const;

 private:
  std::vector<ExperimentSpec> specs_;
};

/// Registers the spec returned by `factory` (an `ExperimentSpec (*)()`)
/// at static-initialization time. Use at namespace scope in
/// bench/experiments/*.cc.
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(ExperimentSpec (*factory)());
};

#define VRD_REGISTER_EXPERIMENT(factory)             \
  static const ::vrddram::bench::ExperimentRegistrar \
      vrd_experiment_registrar_##factory {           \
    (factory)                                        \
  }

/// The knobs several experiments share, each declared with its help
/// text once. --threads sizes the campaign and the parallel analysis
/// loops; experiments without a campaign that fan out declare it
/// themselves and read it with ResolveThreads().
FlagSpec ThreadsFlagSpec();
FlagSpec DevicesFlagSpec(std::string default_value = "all");
FlagSpec RowsFlagSpec(std::string default_value);
FlagSpec SeedFlagSpec();
FlagSpec ScanFlagSpec();

/**
 * The paper's §5 characterization procedure, which fig07-fig12, fig15
 * and table07 run with one test parameter varied each: select victim
 * rows per bank region (--scan), measure each of --rows victims per
 * device --measurements times (1,000 in the paper) from --seed, on
 * --devices. A constexpr instance per experiment holds its defaults.
 */
struct CampaignProcedure {
  /// Default of --devices; empty when the experiment fixes its device
  /// set itself and declares no --devices (fig09: the DDR4 modules).
  std::string_view devices = "all";
  /// Default of --rows, the victim rows per device.
  std::string_view rows = "6";
  /// Declares --iters: the experiment analyzes through AnalyzeMinRdt.
  bool min_rdt = true;

  /// The schema: [--devices], --rows, --measurements, --seed, --scan,
  /// [--iters], then `own`, then the execution flags --threads,
  /// --checkpoint, --resume, --inject and --max_attempts.
  std::vector<FlagSpec> Schema(std::vector<FlagSpec> own = {}) const;

  /// The campaign those flags select, with the execution flags
  /// applied. The experiment then sets its varied axis (patterns,
  /// t_ons, temperatures, the thermal rig, or a fixed device set).
  core::CampaignConfig Build(const Flags& flags) const;
};

/// What AnalyzeMinRdt computed: the settings it ran with (--iters
/// applied) and one result per campaign record, in record order.
struct MinRdtAnalysis {
  core::MinRdtSettings settings;
  std::vector<core::RowMinRdtResult> rows;
};

/**
 * The min-RDT step of the seven min-RDT experiments: prints the shard
 * summary, then estimates, for every record, how likely N of its
 * measurements are to find its minimum RDT (core::AnalyzeRows) with
 * `settings` and --iters. The closed form (--iters=0) is serial; the
 * Monte Carlo opt-in fans its rows x N tasks out over --threads
 * workers from Rng(--seed ^ salt), with the same results at any count.
 */
MinRdtAnalysis AnalyzeMinRdt(const core::CampaignResult& result,
                             Report* report, std::uint64_t salt,
                             core::MinRdtSettings settings = {});

}  // namespace vrddram::bench

#endif  // VRDDRAM_BENCH_COMMON_EXPERIMENT_H
