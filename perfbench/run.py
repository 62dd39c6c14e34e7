#!/usr/bin/env python3
"""Runs one workload of the FlowDiff benchmark.

    python3 perfbench/run.py --workload <replay-steady|batch-diagnose|serve-paced>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the release binaries under test
(`flowdiff-bench`, `flowdiff_cli`) and the harness in `perfbench/harness`
into $CARGO_TARGET_DIR (default `.bench_build`), then hands over to the
harness, which generates the seed's captures, runs and checks the
workload, and prints one JSON result line last. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("replay-steady", "batch-diagnose", "serve-paced")
# A run measures for --seconds plus set-up and checks; this caps a hung one.
HARNESS_TIMEOUT_S = 170


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "flowdiff-bench", "--bin", "flowdiff-bench", "--bin", "flowdiff_cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "harness", "Cargo.toml")):
        sys.exit("perfbench: run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, target)

    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench", "work")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bin-dir", release,
        "--work-dir", work,
        "--trace-dir", os.path.join(target, "perfbench", "traces"),
    ]
    sys.stdout.flush()
    # The harness runs in a session of its own, so a run that overstays
    # its limit is stopped together with every program it started.
    harness = subprocess.Popen(cmd, start_new_session=True)

    def stop(*_):
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        sys.exit("perfbench: stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        sys.exit(f"perfbench: run exceeded {HARNESS_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
