#!/usr/bin/env python3
"""Runs fexperf on several seeds and prints each metric's run-to-run spread.

    python3 fexperf/spread.py [--runs 10] [--seconds 15] [workload ...]

Run it from the repository root. The spread is the distance between the
first and third quartile of the runs' values (statistics.quantiles, n=4),
as a share of their median. Next to the calibrated op_p50_ms it prints the
raw (uncalibrated) p50 from each run's stderr diagnostics, so the two
spreads can be compared.
"""

import argparse
import json
import re
import statistics
import subprocess

WORKLOADS = ["cold_matrix", "edit_loop", "serve_mix"]
COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "fexperf/Cargo.toml", "--"]
RAW = re.compile(r"op_p50_ms [0-9.]+ calibrated / ([0-9.]+) raw")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    for workload in args.workloads:
        values = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                COMMAND + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            raw = RAW.search(run.stderr)
            values.setdefault("raw op_p50_ms", []).append(float(raw.group(1)))
        print(f"{workload}: {args.runs} runs, {failed} failed ops")
        for name, vs in values.items():
            print(f"  {name:<16} median {statistics.median(vs):12.4f}  "
                  f"spread {100 * spread(vs):6.2f}%  values "
                  + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
