#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds perfbench (the library plus perfbench/perfbench.cpp, Release) into
the build directory on first use, runs one workload, checks the result
against BENCHMARK.json and prints it.  Run from the repository root:

    python3 perfbench/run.py --workload backlog-switch --seed 1 --seconds 30 --trace 0

The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Build output goes to stderr.  The build directory is $CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("backlog-switch", "churn-sharded", "caughtup-cdn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found at the repository root; nothing to build")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "perfbench")


def revision():
    """git SHA when run in a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def validate(result, trace):
    """Problems with the shape of a result line; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    expected = expected_metrics(trace)
    if expected is not None and result["correct"]:
        got = [(name, m.get("unit")) for name, m in result["metrics"].items()]
        if sorted(got) != sorted(expected):
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision()]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"no result line (exit status {done.returncode})")
    problems = validate(result, args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("malformed result: " + "; ".join(problems))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"]:
        fail("correctness check failed (see CHECK FAILED above)", code=1)


if __name__ == "__main__":
    main()
