#!/usr/bin/env python3
"""End-to-end reproduction benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload repro_all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The harness (perfbench/perfbench.cc) is built in Release against the
repository's own CMake project, in $CARGO_TARGET_DIR (default
.bench_build). One harness process runs one workload, so its peak RSS is
the workload's own. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Workloads: repro_all and campaign_cold are BENCHMARK.json's; the third,
reanalyze_warm, runs in --self-test and on request (see README.md).

Host speed: the harness times a fixed calibration loop of its own
before set-up, after set-up and at the end of every run. On a shared
4-vCPU VM the host's speed changed by up to 2x within an hour, and the
program's times followed it. The end-to-end times are
therefore host-corrected: measured time x (REFERENCE_CALIBRATION_MS /
the run's median calibration slice) ** HOST_EXPONENT. The summary line
above the result prints the measured times and the calibration, and a
traced run reports the calibration as host.calibration_ms; per-layer
times are not corrected. See README.md "Noise" for the measurements
behind the exponent.

Output checks: every report and campaign result is digested; a digest
must repeat across repetitions, across runs of the same workload and
seed, and across workloads that produce the same report or campaign
(reanalyze_warm's reports are byte-identical to repro_all's). Digests
are kept per harness binary in <build>/runs.json. A throw, a non-zero
driver exit, a quarantined shard, a missing or empty report, a warm
cache miss, or a digest mismatch counts as a failed operation.

--self-test runs every workload at smoke scale, untraced and traced, at
the default seed and at a held-out seed. It checks outputs at both,
checks that the deterministic work counters at the default seed equal
perfbench/selftest_pins.json, and checks that the metric names equal
BENCHMARK.json's.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro_all", "reanalyze_warm", "campaign_cold")
DEFAULT_SEED = 2025  # every experiment's own --seed default
HELD_OUT_SEED = 4242  # confirms a claim on a seed not used to write it
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PINS = os.path.join(HERE, "selftest_pins.json")
# Host correction. Over 40 runs of each workload, log wall time rose
# with log calibration time with a slope of 0.52 (repro_all) and 0.55
# (campaign_cold): the program slows by about the square root of what
# the calibration loop does. The reference is a mid-range calibration.
REFERENCE_CALIBRATION_MS = 30.0
HOST_EXPONENT = 0.5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once and builds the harness; returns its path."""
    for required in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no repository to build: %s is missing" % required)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-3000:])
                fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench")


def run_harness(binary, workload, seed, seconds, trace, smoke=False):
    work = os.path.join(build_dir(), "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--work=" + work]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(os.path.join(work, "warm_cache"), ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr[-3000:])
        fail("%s harness exited with %d" % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunRecord:
    """What earlier runs of one harness binary saw, kept across runs.

    `digests` maps "<scale>/<seed>" to every report and campaign digest
    seen. Report and campaign names are shared across workloads, so
    this also checks reanalyze_warm against repro_all and campaign_cold
    against the campaigns the traced passes ran.
    """

    def __init__(self, binary):
        self.path = os.path.join(build_dir(), "runs.json")
        record = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                record = json.load(f)
        self.record = record.setdefault(file_sha256(binary)[:16], {})
        self.all = record

    def check_digests(self, key, digests, errors):
        """Records `digests`; returns how many contradict earlier ones."""
        seen = self.record.setdefault("digests", {}).setdefault(key, {})
        mismatches = 0
        for name, digest in sorted(digests.items()):
            known = seen.setdefault(name, digest)
            if known != digest:
                mismatches += 1
                errors.append("digest of %s changed: %s != %s"
                              % (name, digest, known))
        return mismatches

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.all, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def combined_digest(digests):
    text = "".join("%s=%s\n" % item for item in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def evaluate(binary, result, seed, smoke):
    """Checks one harness result and records its digests.

    Returns (attempted, failed, errors).
    """
    scale = "smoke" if smoke else "default"
    record = RunRecord(binary)
    passes = list(result["reps"])
    if "traced" in result:
        passes.append(result["traced"])
    attempted = failed = 0
    errors = []
    for one in passes:
        attempted += int(one["attempted"])
        failed += int(one["failed"]) + record.check_digests(
            "%s/%d" % (scale, seed), one["digests"], errors)
        errors.extend(one["errors"])
    record.save()
    return attempted, failed, errors


def calibration_ms(result):
    """The run's median calibration slice: higher on a slower host."""
    return 1e3 * statistics.median(result["calibration_s"])


def host_factor(result):
    """Factor that turns a measured time into a host-corrected one."""
    return (REFERENCE_CALIBRATION_MS / calibration_ms(result)) ** HOST_EXPONENT


def summarize(result, spec, trace):
    """The metrics BENCHMARK.json lists for this kind of run."""
    if trace:
        values = dict(result["per_layer"])
        values["host.calibration_ms"] = calibration_ms(result)
        wanted = spec["per_layer"]
    else:
        reps = result["reps"]
        host = host_factor(result)
        values = {
            "wall_s": host * statistics.median(r["wall_s"] for r in reps),
            "cpu_s": host * statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": host * statistics.median(result["setup_s"]),
        }
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(values) ^ names))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def print_probe_table(per_layer):
    """Each probe's self time beside its owning experiment's analyze_s."""
    for key in sorted(per_layer):
        if key.startswith("probe.") and per_layer[key] > 0:
            name = key[len("probe."):-len(".self_s")]
            analyze = per_layer.get("bench.%s.analyze_s" % name, 0.0)
            share = per_layer[key] / analyze if analyze > 0 else 0.0
            print("probe %-30s self %8.3f s  analyze %8.3f s  (%.0f%%)"
                  % (name, per_layer[key], analyze, 100 * share))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail("BENCHMARK.json is missing")
    with open(path) as f:
        return json.load(f)


def run_workload(args):
    spec = load_spec()
    binary = build()
    result = run_harness(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    attempted, failed, errors = evaluate(binary, result, args.seed, False)
    metrics = summarize(result, spec, args.trace)
    passes = result["reps"] + ([result["traced"]] if args.trace else [])
    # The outputs an untraced run makes, so both modes print one digest.
    kind = "campaign/" if args.workload == "campaign_cold" else "report/"
    digests = {}
    for one in passes:
        digests.update((name, digest) for name, digest in one["digests"].items()
                       if name.startswith(kind))
    for line in errors[:20]:
        print("error: " + line)
    print("output digest %s seed=%d: %s (%d outputs)"
          % (args.workload, args.seed, combined_digest(digests), len(digests)))
    print("passes=%d measured wall_s=%s setup_s=%s calibration_ms=%.2f "
          "host_factor=%.4f error_rate=%g"
          % (len(passes), [round(p["wall_s"], 3) for p in passes],
             [round(s, 3) for s in result["setup_s"]],
             calibration_ms(result), host_factor(result),
             failed / attempted))
    if args.trace:
        print_probe_table(result["per_layer"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def pinned_counters(result):
    """The deterministic work counters of one traced smoke result."""
    counters = dict(result["traced"]["counters"])
    for name, value in result["per_layer"].items():
        if not name.endswith(("_s", "_per_s", "per_request",
                              "per_trial", "per_draw", "parallelism")):
            counters[name] = value
    return counters


def self_test(args):
    spec = load_spec()
    binary = build()
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    observed = {}
    problems = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in WORKLOADS:
            digests = {}
            for trace in (False, True):
                result = run_harness(binary, workload, seed, 0, trace,
                                     smoke=True)
                attempted, failed, errors = evaluate(binary, result, seed,
                                                     True)
                summarize(result, spec, trace)
                for one in result["reps"] + [result.get("traced", {})]:
                    digests.update(one.get("digests", {}))
                problems += ["seed %d %s: %s" % (seed, workload, e)
                             for e in errors]
                if failed or attempted == 0:
                    problems.append("seed %d %s: %d of %d failed"
                                    % (seed, workload, failed, attempted))
                if trace and seed == DEFAULT_SEED:
                    observed[workload] = pinned_counters(result)
            print("seed=%d %-15s digest=%s" % (seed, workload,
                                                combined_digest(digests)))
    if args.write_pins:
        with open(PINS, "w") as f:
            json.dump(observed, f, indent=1, sort_keys=True)
            f.write("\n")
    elif observed != pins:
        for workload in WORKLOADS:
            want, got = pins.get(workload, {}), observed[workload]
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append("%s %s: pinned %s, got %s"
                                    % (workload, name, want.get(name),
                                       got.get(name)))
    for line in problems:
        print("FAIL " + line)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-pins", action="store_true",
                        help="with --self-test: record the counters as pins")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.self_test:
        sys.exit(self_test(args))
    if args.workload is None:
        parser.error("--workload or --self-test is required")
    run_workload(args)


if __name__ == "__main__":
    main()
