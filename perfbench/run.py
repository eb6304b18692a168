#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the first run configures and
builds (about a minute on 4 cores), later runs rebuild only what changed.
The last line of stdout is the benchmark's JSON result; build output and
diagnostics go to stderr. The exit code is the benchmark's: 0 only when every
output check passed and, for a workload BENCHMARK.json lists, the result
holds exactly the metrics BENCHMARK.json declares for the mode (end-to-end
with --trace 0, per-layer with --trace 1), each in its declared unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_large", "serve_mix", "delta_stream", "wire")
RUN_TIMEOUT_S = 170


def declared_metrics(root, workload, trace):
    """{name: unit} BENCHMARK.json declares for this mode, or None when it
    does not list the workload (delta_stream runs by hand only)."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def build(root, build_dir):
    # Configure until a configure has succeeded (it writes the build file).
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "sts_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "sts_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(build_dir, "traces")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as err:
        sys.stdout.write(proc.stdout)
        print(f"run.py: no result line from {args.workload}: {err}", file=sys.stderr)
        return proc.returncode or 4
    declared = declared_metrics(root, args.workload, args.trace)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if declared is not None and printed != declared:
        sys.stdout.write(proc.stdout)
        print(f"run.py: {args.workload} printed metrics {sorted(printed.items())}, "
              f"BENCHMARK.json declares {sorted(declared.items())}", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
