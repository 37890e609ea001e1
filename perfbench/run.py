#!/usr/bin/env python3
"""Builds and runs the client-seen benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark and the mcn library it
links are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) under that root, then the benchmark binary runs the workload.
Its standard output is passed through; the last line is the result
object. The exit code is the binary's: 0 only for a correct run. A build
failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configures and builds `target`; build chatter goes to stderr."""
    out = build_dir()
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", "4"],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, target)


def run(cmd):
    """Runs `cmd`, echoing its stdout; returns (exit code, last line)."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    lines = result.stdout.splitlines()
    # Everything but the result object first, so it stays the last line.
    for line in lines[:-1]:
        print(line)
    return result.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary], cwd=ROOT).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("perfbench")
    if binary is None:
        return 1
    code, last = run([binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])
    try:
        result = json.loads(last)
    except ValueError:
        print(f"perfbench: the benchmark printed no result (exit {code})",
              file=sys.stderr)
        return code or 1
    if not isinstance(result, dict):
        return code or 1
    print(last)
    return code


if __name__ == "__main__":
    sys.exit(main())
