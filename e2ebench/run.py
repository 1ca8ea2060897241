#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see e2ebench/README.md).

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds bench_e2e from the checkout's sources on first use, runs one
      workload in its own process, and prints the result as the last line
      of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 1
      reports the per-layer metrics of a traced run (span tree written
      under the build directory) plus the kernel-tier probes.

  python3 e2ebench/run.py --suite [--seeds K] [--seed N] [--seconds S]
                          [--out FILE]
      Runs every workload (one process each, K seeds), prints every
      metric with its unit, writes the medians and the host stamp to FILE,
      and exits nonzero if any run is incorrect.

  python3 e2ebench/run.py --check BASELINE.json [--seeds K] [--seconds S]
      Reruns the suite as the baseline was run and prints one row per
      (workload, end-to-end metric): base, new, change, bound. Exits
      nonzero on a regression past a bound or an incorrect run; refuses
      to compare when the host stamps differ.

The build lives in $CARGO_TARGET_DIR (default .bench_build) inside the
checkout: default/ is the repository's default build, native/ the
-DCLUSTAGG_NATIVE=ON build that carries the AVX2 kernel tier.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
KERNEL_TIERS = ("portable", "swar", "avx2")
# --check counts a set-up as regressed only when it also grew by this
# much: a set-up of a few milliseconds moves by more than its bound on
# host noise alone.
SETUP_FLOOR_S = 0.05


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def threads_used():
    return min(4, len(os.sched_getaffinity(0)))


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(name, extra_flags):
    """Configures (once) and builds bench_e2e; returns its path."""
    build_dir = build_root() / name
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release", *generator,
                            *extra_flags],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "bench_e2e", "-j", str(threads_used())],
                       check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def build_all():
    """The default build, and the native build when it compiles. Every
    run retries a failed native build; while it fails, the avx2 tier
    reads as degraded."""
    default = build("default", [])
    try:
        native = build("native", ["-DCLUSTAGG_NATIVE=ON"])
    except subprocess.CalledProcessError as error:
        log(f"run.py: the -DCLUSTAGG_NATIVE=ON build failed ({error}); "
            "the avx2 kernel tier reads as degraded")
        native = None
    return default, native


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def run_bench(binary, args, env=None):
    proc = subprocess.run([str(binary), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench_e2e exited {proc.returncode}")
    return last_json_line(proc.stdout)


def kernel_probes(default, native, workload, seed):
    """One process per kernel tier on the workload's input. A tier that
    runs as another one (CLUSTAGG_KERNEL degrades silently) reads 0 and
    counts in core.kernel_degraded_tiers."""
    metrics = {}
    degraded = 0
    packed = 0
    for tier in KERNEL_TIERS:
        binary = native if tier == "avx2" else default
        probe = None
        if binary is not None:
            env = dict(os.environ, CLUSTAGG_KERNEL=tier)
            probe = run_bench(binary, ["--workload", workload, "--seed",
                                        str(seed), "--kernel-probe"], env)
        ran = probe is not None and probe["tier"] == tier
        degraded += 0 if ran else 1
        if tier == "swar" and ran:
            packed = probe["packed"]
        for kernel in ("lazy_query_ns", "fill_row_ns", "agreement_row_ns"):
            metrics[f"core.{kernel}.{tier}"] = {
                "value": probe[kernel] if ran else 0, "unit": "ns"}
    metrics["core.kernel_degraded_tiers"] = {"value": degraded,
                                             "unit": "count"}
    metrics["core.packed_kernel_used"] = {"value": packed, "unit": "count"}
    for name, metric in metrics.items():
        log(f"  {name:36} {metric['value']:14.6g} {metric['unit']}")
    return metrics


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def run_workload(binaries, workload, seed, seconds, trace):
    """One workload in its own process; returns the result object."""
    default, native = binaries
    run_dir = build_root() / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--dir", str(run_dir)]
    try:
        if trace:
            traces = build_root() / "traces"
            traces.mkdir(exist_ok=True)
            args += ["--trace", str(traces / f"{workload}-seed{seed}.json")]
        result = run_bench(default, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        result["metrics"].update(kernel_probes(default, native, workload,
                                               seed))
    spec = benchmark_spec()
    if spec is not None:
        names = [m["name"] for m in spec["per_layer" if trace
                                         else "end_to_end"]]
        if set(names) != set(result["metrics"]):
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(names) ^ set(result['metrics']))}")
        result["metrics"] = {name: result["metrics"][name]
                             for name in names}
    return result


def host_stamp(binaries):
    host = json.loads(subprocess.run([str(binaries[0]), "--host"],
                                     stdout=subprocess.PIPE, text=True,
                                     check=True).stdout)
    host["commit"] = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        if commit.returncode == 0:
            host["commit"] = commit.stdout.strip()
    except OSError:
        pass  # no git on this host
    return host


def run_suite(binaries, seed, seeds, seconds, trace):
    """Every workload, every seed, one process each; per-metric medians."""
    spec = benchmark_spec()
    results = {}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_workload(binaries, workload, s, seconds, trace)
                for s in range(seed, seed + seeds)]
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        all_correct = all_correct and correct
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"value": statistics.median(values),
                             "unit": first["unit"], "runs": values}
            log(f"{workload:20} {name:36} {metrics[name]['value']:14.6g} "
                f"{first['unit']}")
        results[workload] = {"correct": correct, "metrics": metrics}
    return results, all_correct


def check(binaries, baseline, seeds, seconds):
    """Compares a fresh suite against the baseline within the bounds of
    BENCHMARK.json; returns the exit code."""
    host = host_stamp(binaries)
    base_host = {k: v for k, v in baseline["host"].items() if k != "commit"}
    new_host = {k: v for k, v in host.items() if k != "commit"}
    if base_host != new_host:
        log("host stamps differ; refusing to compare:")
        for key in sorted(set(base_host) | set(new_host)):
            if base_host.get(key) != new_host.get(key):
                log(f"  {key}: {base_host.get(key)!r} -> {new_host.get(key)!r}")
        return 3
    results, correct = run_suite(binaries, baseline["seed"], seeds,
                                 seconds, False)
    bounds = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    regressions = 0
    print(f"{'workload':20} {'metric':18} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            base = baseline["results"][workload]["metrics"][name]["value"]
            new = metric["value"]
            change = (new - base) / base
            worse = change if bounds[name]["better"] == "lower" else -change
            bad = worse > bounds[name]["bound"]
            if name == "setup_s":
                bad = bad and new - base > SETUP_FLOOR_S
            regressions += bad
            print(f"{workload:20} {name:18} {base:12.6g} {new:12.6g} "
                  f"{100 * change:+7.1f}% {100 * bounds[name]['bound']:5.0f}%"
                  f"{'  REGRESSION' if bad else ''}")
    if not correct:
        log("an incorrect run")
    return 1 if regressions or not correct else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--suite", action="store_true")
    mode.add_argument("--check", metavar="BASELINE")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {PACKAGE.name}/; run from a "
            "checkout of the repository")
        return 2
    spec = benchmark_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = spec["run_seconds"] if spec else 10
    try:
        binaries = build_all()
        if args.workload:
            result = run_workload(binaries, args.workload, args.seed,
                                  seconds, args.trace == 1)
            print(json.dumps(result))
            return 0
        if args.check:
            baseline = json.loads(Path(args.check).read_text())
            return check(binaries, baseline, args.seeds or baseline["seeds"],
                         args.seconds or baseline["seconds"])
        seeds = args.seeds or 1
        results, correct = run_suite(binaries, args.seed, seeds, seconds,
                                     args.trace == 1)
        record = {"host": host_stamp(binaries), "seed": args.seed,
                  "seeds": seeds, "seconds": seconds,
                  "trace": args.trace, "results": results}
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        return 0 if correct else 1
    except (RuntimeError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
