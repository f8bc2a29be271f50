#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload athena_1c --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The perfbench program and the
simulator library are built (Release, as the repository's own build
makes them) under .bench_build/perfbench; per-run records and
traced-run spans go to .bench_build/results. The last line of
standard output is the JSON verdict of the run; see
perfbench/README.md for what is measured.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("athena_1c", "shared_4c", "fig_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_group(cmd, timeout, stdout, env=None):
    """Run cmd in its own process group; on timeout kill the whole
    group (compilers included) and wait for it. Returns (returncode,
    stdout text or None); returncode is None on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return None, out
    return proc.returncode, out


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    return run_group(cmd, timeout, sys.stderr)[0] == 0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           BUILD_TIMEOUT_S):
            return False
    return run_checked(["cmake", "--build", BUILD_DIR, "--target",
                        "perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in [1, 120]")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The simulator reads ATHENA_* knobs from the environment (budgets,
    # snapshot cache, engine and SIMD overrides); the benchmark runs
    # every workload at its defaults.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ATHENA_")}
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS_DIR]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE, env)
    out = out or ""
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        valid = False
    if code != 0 or not valid:
        sys.stderr.write(out)
        print("perfbench: run failed (exit %s)" % code, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
