#!/usr/bin/env python3
"""Runs the benchmark over several seeds and saves every result as JSON lines.

    python3 perfbench/sweep.py --out runs_a.jsonl [--workloads cold_large,wire]
                               [--seeds 1-10] [--seconds N] [--trace 0|1]

Workloads default to every workload in BENCHMARK.json and --seconds to its
run_seconds. Each line of the output file is
{"workload", "seed", "trace", "returncode", "result"}; compare two such files
with compare.py. Runs go one after another, each in its own process.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
                    cwd=root, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                record = {"workload": workload, "seed": seed, "trace": int(args.trace),
                          "returncode": proc.returncode, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: rc={proc.returncode} "
                      f"{json.dumps(result['metrics']) if result else 'no result'}", file=sys.stderr)


if __name__ == "__main__":
    main()
