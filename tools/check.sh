#!/usr/bin/env bash
# CI check, four stages:
#
#   1. Plain build, production flags: the full ctest suite, every label
#      included, on the binaries that ship. The kernels label runs twice
#      more, under TCSS_SIMD=off and TCSS_SIMD=native, so each side of
#      the dispatch seam runs as the startup-selected table. Then
#      perfbench/smoke_test.py builds the repository benchmark and runs
#      every BENCHMARK.json workload at tiny scale, so a change that
#      breaks the benchmark's build or its output checks fails here.
#   2. ASan + UBSan build: the full suite again, where heap errors, leaks
#      and undefined behaviour fail a test.
#   3. TSan build: the labels whose tests run code on several threads
#      (determinism, obs, proptest, kernels, server, dist, stream), with
#      the server chaos soak at TCSS_SERVER_SOAK=10000 requests. Any data
#      race fails here; the rest of the suite is single-threaded and
#      stage 2 covers it.
#   4. Reachability (tools/reachability.sh): a Debug build of the
#      libraries and programs with --gc-sections; every library function
#      that no program reaches must be on tools/reachability_allowlist.txt
#      with the test that needs it, and every entry must still be
#      unreached.
#
#   tools/check.sh [asan-build-dir] [tsan-build-dir]
#                  (defaults: build-asan, build-tsan; the plain stage
#                   uses/creates ./build, the reachability stage
#                   ./build-reach)
#
# Any test failure, sanitizer report (heap overflow, UB, leak, race) or
# unreached function off the allowlist fails.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"

# --- Stage 1: plain build, full suite ------------------------------------
# Every build and every ctest gets an explicit job count: a bare -j is an
# unbounded make -j under CMake's Makefile generator, and a bare ctest -j
# runs one test at a time (or swallows the next flag as its count).
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Kernel-dispatch suite under both env-forced SIMD modes. The full run
# above already covers the default (auto) resolution; these two pin each
# side of the seam explicitly.
TCSS_SIMD=off ctest --test-dir build --output-on-failure -j "$(nproc)" \
  -L "kernels"
TCSS_SIMD=native ctest --test-dir build --output-on-failure -j "$(nproc)" \
  -L "kernels"

# The repository benchmark builds its own tree (.bench_build) from the
# same sources and checks its workloads' answers.
python3 perfbench/smoke_test.py

# --- Stage 2: ASan/UBSan build, full suite -------------------------------
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTCSS_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error so UBSan findings fail the test instead of just logging.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# --- Stage 3: TSan build, concurrency suites -----------------------------
# TSan is mutually exclusive with ASan, hence the separate tree.
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTCSS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
# The chaos soak gates this stage at >=10k requests (see tests/CMakeLists).
export TCSS_SERVER_SOAK=10000
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -L "determinism|obs|proptest|kernels|server|dist|stream"

# --- Stage 4: reachability ------------------------------------------------
# Its own Debug tree (build-reach/), linked the way the header describes.
tools/reachability.sh

echo "check passed"
