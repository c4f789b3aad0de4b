#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload gowalla|catalog --seed N \
        --seconds S --trace 0|1 [--tiny] [--inject KIND]

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library from
src/) under $CARGO_TARGET_DIR or .bench_build. The binary measures the
workload, checks its outputs and prints context, property shares and all
its metrics; this script keeps the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) named in BENCHMARK.json and prints them as
the last line of stdout. A traced run also reports the tracing overhead
against the latest untraced run of the same workload.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_revision():
    """git revision when available, else a digest of the source tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    binary = os.path.join(build_dir, "tcss_perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tcss_perfbench",
         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return binary if made.returncode == 0 else None


def run_binary(binary, work_dir, args, trace, rev, timeout):
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--rev", rev]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, cwd=work_dir, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return None, []
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        log("benchmark binary printed nothing (exit %d)" % proc.returncode)
        return None, []
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("unparseable result line: " + lines[-1][:200])
        return None, lines[:-1]
    return result, lines[:-1]


def save_json(path, value):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(value, f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale")
    parser.add_argument("--inject", default="",
                        help="corrupt one answer before the checks")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no repository sources next to %s; nothing to build" % BENCH_DIR)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2
    rev = source_revision()
    work_dir = os.path.join(build_dir, "work", args.workload)
    # The latest correct untraced result of this workload: the baseline of
    # the tracing overhead.
    cache = os.path.join(build_dir, "results", "%s-%gs%s.json" % (
        args.workload, args.seconds, "-tiny" if args.tiny else ""))

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace and not os.path.exists(cache):
        # No untraced run of this workload yet: make one.
        untraced, _ = run_binary(binary, work_dir, args, 0, rev,
                                 deadline - time.monotonic())
        if untraced is not None and untraced["correct"]:
            save_json(cache, untraced["metrics"])
    result, info = run_binary(binary, work_dir, args, args.trace, rev,
                              deadline - time.monotonic())
    if result is None:
        return 1
    for line in info:
        print(line)

    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    metrics = result["metrics"]
    if args.trace and os.path.exists(cache):
        # Tracing overhead: traced / untraced - 1 per end-to-end metric.
        with open(cache) as f:
            base = json.load(f)
        for m in spec["end_to_end"]:
            name = m["name"]
            if name in base and name in metrics and base[name]["value"]:
                metrics["trace_overhead." + name] = {
                    "value": metrics[name]["value"] / base[name]["value"] - 1,
                    "unit": "ratio"}
    elif not args.trace and result["correct"]:
        save_json(cache, metrics)

    missing = [n for n in names if n not in metrics]
    correct = bool(result["correct"]) and not missing
    if missing:
        log("metrics missing from the run: " + ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
