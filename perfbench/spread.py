#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload replay-steady --seeds 1-10 [--seconds 30] [--trace 0]

Run from the repository root. For every metric it prints the median of
the per-seed values and the distance between their first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of that
median — the figure each end-to-end metric's `bound` in BENCHMARK.json
must stay above.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {done.returncode})")
            print(done.stdout[-2000:], done.stderr[-2000:])
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            print(f"{name:34s} median {med:14.6g}  IQR/median {(q3 - q1) / med:.3f}  (n={len(xs)})")


if __name__ == "__main__":
    main()
