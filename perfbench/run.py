#!/usr/bin/env python3
"""Repository benchmark: build perfbench and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reorder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles ../src) into
.bench_build/perfbench, runs the perfbench binary and forwards its output.
The last line of standard output is the result JSON. Exits non-zero on a
failed build, a failed operation or a failed output check, and when the
library sources are missing (a directory holding only the benchmark).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = "perfbench"
OUT_DIR = ".bench_out"
TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, BENCH_DIR), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return build_dir


def git_sha(root):
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != root:
            return "unknown"
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def tracing_overhead(history_path, workload, traced):
    """Traced minus the median untraced value of each end-to-end metric."""
    untraced = []
    if os.path.exists(history_path):
        with open(history_path) as f:
            for line in f:
                entry = json.loads(line)
                if entry["workload"] == workload and not entry["trace"]:
                    untraced.append(entry["end_to_end"])
    if not untraced:
        return ["tracing overhead: unavailable (no untraced run of this "
                "workload in this checkout yet)"]
    lines = [f"tracing overhead vs median of {len(untraced)} untraced runs:"]
    for name, metric in traced.items():
        base = statistics.median(u[name]["value"] for u in untraced)
        delta = metric["value"] - base
        lines.append(f"  {name}: {delta:+.6g} {metric['unit']} "
                     f"({delta / base:+.1%})")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the helpers")
    args = parser.parse_args()

    root = os.path.realpath(os.getcwd())
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("no library sources under ./src: run from a repository checkout")
        return 2
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    build_dir = build(root)
    if build_dir is None:
        return 3
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               os.path.join(root, "BENCHMARK.json")]).returncode

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = os.path.join(root, ".bench_work", tag)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(root)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"perfbench printed nothing (exit {proc.returncode})")
        return proc.returncode or 5
    notes, result = lines[:-1], lines[-1]
    end_to_end = None
    for line in notes:
        print(line)
        if line.startswith("end_to_end: "):
            end_to_end = json.loads(line[len("end_to_end: "):])
    history = os.path.join(out_dir, "history.jsonl")
    if end_to_end is not None and proc.returncode == 0:
        if args.trace:
            for line in tracing_overhead(history, args.workload, end_to_end):
                print(line)
        with open(history, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace,
                                "end_to_end": end_to_end}) + "\n")
    print(result, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
