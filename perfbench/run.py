#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

    python3 perfbench/run.py --workload paper_stream|gather_thrash|service_open
                             --seed N --seconds S --trace 0|1

Run from the repository root. The vcop libraries (../src) and the
perfbench binary are built with CMake into .bench_build/ (configured once,
then rebuilt incrementally). The binary's report goes to stdout; its last
line is one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric with --trace 0, every per-layer metric
with --trace 1. A traced run also writes a Chrome trace of its last traced
pass to .bench_build/trace-<workload>-<seed>.json.

Exits non-zero, without a JSON line, when the build or the run fails, and
with the binary's non-zero code when any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_stream", "gather_thrash", "service_open")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs a build step, echoing its output to stderr only on failure."""
    # The compiler's temporary files stay inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout,
                              check=False, env=dict(os.environ, TMPDIR=tmp))
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        print(f"failed: {' '.join(cmd)}", file=sys.stderr)
        return False
    return True


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench timed out", file=sys.stderr)
        return 1
    out = proc.stdout.decode(errors="replace")
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        print(f"perfbench printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
