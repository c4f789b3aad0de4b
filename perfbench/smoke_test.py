#!/usr/bin/env python3
"""Smoke test of the repository benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json through run.py with --tiny, untraced
and traced, and checks that each end-to-end and per-layer metric is printed
with its unit. Then hands the output checks corrupted answers (a swapped
top-k entry, a dropped response, a NaN loss) and checks that each of those
runs fails with the matching diagnostic instead of reporting numbers.
"""
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Corruption handed to the checks, and the diagnostic that must catch it.
INJECTIONS = [
    ("swap_topk", "differs from the f64 oracle"),
    ("drop_response", "unanswered"),
    ("nan_loss", "non-finite loss"),
]


def run(workload, trace, inject=""):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append("%s: run failed (exit %d): %s" %
                                (label, code, err.strip()[-300:]))
                continue
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    failures.append("%s: %s not printed" % (label, m["name"]))
                elif got.get("unit") != m["unit"]:
                    failures.append("%s: %s has unit %r, not %r" % (
                        label, m["name"], got.get("unit"), m["unit"]))
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    failures.append("%s: %s is not a finite number" %
                                    (label, m["name"]))
            print("ok  %s: %d metrics" % (label, len(spec[kind])))
        for inject, diagnostic in INJECTIONS:
            code, result, err = run(workload, 0, inject)
            label = "%s --inject %s" % (workload, inject)
            if code == 0 or (result is not None and result["correct"]):
                failures.append("%s: corrupted answer passed the checks" %
                                label)
            elif diagnostic not in err:
                failures.append("%s: failed without %r: %s" %
                                (label, diagnostic, err.strip()[-300:]))
            else:
                print("ok  %s: rejected" % label)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
