#!/usr/bin/env bash
# Line-coverage report for the test suite (gcov, no external tools).
#
#   tools/coverage.sh [build-dir]     (default: build-cov)
#
# Configures a dedicated tree with -DTCSS_COVERAGE=ON (--coverage -O0 so
# line counts are not distorted by inlining), runs the full ctest suite,
# then aggregates the gcov JSON for every object file into a per-module
# line-coverage table for src/ and tools/ (the tcss CLI, which cli_test
# and dist_test drive by fork/exec). Lines hit in ANY test binary count as
# covered (counts are merged across objects, so shared headers are not
# double-counted). The raw merged data lands in <build-dir>/coverage.json.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-cov}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DTCSS_COVERAGE=ON
# Explicit job counts: a bare -j is an unbounded make -j under CMake's
# Makefile generator, and a bare trailing ctest -j has no count.
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

python3 - "$BUILD_DIR" <<'EOF'
import gzip, json, os, subprocess, sys

build_dir = sys.argv[1]
repo = os.getcwd()

# Every compiled object under src/ and tools/ (gcno exists even if a file
# was never executed, so unexercised code still shows up as 0%).
TREES = ("src", "tools")
gcnos = []
for tree in TREES:
    for root, _, files in os.walk(os.path.join(build_dir, tree)):
        gcnos += [os.path.join(root, f) for f in files if f.endswith(".gcno")]
if not gcnos:
    sys.exit("no .gcno files found -- was the tree built with TCSS_COVERAGE?")

# file -> line -> max count across all objects that compiled it.
lines = {}
for gcno in sorted(gcnos):
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcno],
        capture_output=True, check=True).stdout
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc).get("files", []):
            path = os.path.normpath(os.path.join(repo, f["file"]))
            rel = os.path.relpath(path, repo)
            if rel.split(os.sep)[0] not in TREES:
                continue  # system headers, gtest, tests/ themselves
            per = lines.setdefault(rel, {})
            for ln in f["lines"]:
                n = ln["line_number"]
                per[n] = max(per.get(n, 0), ln["count"])

modules = {}
for rel, per in lines.items():
    parts = rel.split(os.sep)
    # src/<module>/... per library, tools/ as one module.
    module = os.path.join(*parts[:2]) if len(parts) > 2 else parts[0]
    covered, total = modules.setdefault(module, [0, 0])
    modules[module][0] = covered + sum(1 for c in per.values() if c > 0)
    modules[module][1] = total + len(per)

print()
print(f"{'module':<14} {'covered':>8} {'lines':>8} {'pct':>7}")
print("-" * 40)
tot_c = tot_t = 0
for module in sorted(modules):
    c, t = modules[module]
    tot_c, tot_t = tot_c + c, tot_t + t
    print(f"{module:<14} {c:>8} {t:>8} {100.0 * c / t:>6.1f}%")
print("-" * 40)
print(f"{'total':<14} {tot_c:>8} {tot_t:>8} {100.0 * tot_c / tot_t:>6.1f}%")

with open(os.path.join(build_dir, "coverage.json"), "w") as fh:
    json.dump({rel: per for rel, per in sorted(lines.items())}, fh)
print(f"\nper-line data: {build_dir}/coverage.json")
EOF
