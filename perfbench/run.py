#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built (Release) under
.bench_build/ in the checkout; each run gets its own scratch directory
there, removed afterwards, so concurrent runs never collide. The last line
of stdout is the result JSON; the lines before it are the report.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("snippet_hot", "page_cold")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found: run from the root of a full checkout")
    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench",
             "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The commit when the checkout is a git repository, and always a hash
    of the sources the binary is built from (src/ and perfbench/)."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    binary = build()
    commit, source_sha = source_identity()
    print("# perfbench commit %s source_sha256 %s" % (commit, source_sha))
    sys.stdout.flush()

    runs_dir = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix="%s-seed%d-" % (args.workload, args.seed), dir=runs_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if args.trace:
            spans = os.path.join(run_dir, "spans.tsv")
            if os.path.exists(spans):
                traces = os.path.join(BUILD_ROOT, "traces")
                os.makedirs(traces, exist_ok=True)
                shutil.copy(spans, os.path.join(
                    traces, "%s-seed%d.tsv" % (args.workload, args.seed)))
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        die("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    missing = set(expected_metrics(args.trace)) - set(result["metrics"])
    if missing:
        die("result lacks metrics: " + ", ".join(sorted(missing)))
    sys.stdout.write(proc.stdout)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
