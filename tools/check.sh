#!/usr/bin/env bash
# CI check, three stages:
#
#   1. Plain build: run the FULL test suite, labeled and unlabeled suites
#      alike (trainer, checkpoint, model I/O, Hausdorff head, integration
#      and the rest beside the serving, chaos, fuzz, determinism, obs,
#      proptest, kernels, dist and stream labels), in the production
#      configuration — the exact binaries that ship. The kernels label
#      runs twice more: once with TCSS_SIMD=off and once with
#      TCSS_SIMD=native, so both sides of the dispatch seam are the
#      startup-selected table (the suite's own guard test fails if the
#      dispatcher silently falls back to scalar on a machine where the
#      vectorized build is compiled in and supported). Under each, the
#      chord-form distance tests run against that table:
#      HausdorffKernelTest.DistancesBitIdenticalScalarVsNative (same
#      floats and pair list from both tables, rows from every first
#      column mod 4, a row that starts at its last column and an empty
#      row) and
#      HausdorffKernelTest.DistanceBlockSweepMatchesHaversineBitwise
#      (over 1M pairs through HausdorffDistanceBlock, bitwise
#      float(HaversineKm), poles, antimeridian and antipodes included;
#      the mirrored friend-POI triangle with the exact path still run),
#      and the L2 entry loop at ranks 1, 2, 3, 4, 5, 7, 10, 16, 17 and 33
#      (every register panel width and tail, one and several panels):
#      KernelEquivalenceTest.RewrittenLossBitIdenticalScalarVsNative and
#      RewrittenCsfTest.GradsMatchCooEntryLoop (from pre-filled
#      gradients; two shards in a row are the same bytes as one),
#      and the one gemm tile and panel loop:
#      KernelEquivalenceTest.DenseKernelsBitIdenticalScalarVsNative, whose
#      shapes include n = 16, 32 and 48 for MatMul and MatTMul (a last
#      tile exactly 16 wide, the unmasked instance; odd row counts, so
#      the one-row tile runs too) and 300 x 130 x 14 (an unpacked b read
#      across k tiles). The soft-min sweep runs here too:
#      HausdorffKernelTest.TableEntriesBitIdenticalScalarVsNative (the
#      fused hausdorff_softmin entry value only and with dL/dp, every
#      |N| mod 4, alpha -1 and -0.5, a floored pair, |S| past the stack
#      strip) and HausdorffKernelTest.ComputeForUserMatchesScalarReference
#      (the value bitwise the oracle's, the four gradient blocks within
#      1e-12 relative, scalar == native bitwise).
#      The full run includes the Chebyshev-filtered eigensolver's gates:
#      SubspaceIterationTest.ReportsIterationsPerformedAndConvergence
#      (the count is the operator applications run, exactly the cap when
#      capped), SubspaceIterationTest.WideSpectrumStaysFiniteAndAccurate
#      (a 1e12 ... 1e-3 diagonal operator),
#      SubspaceIterationTest.FullRankEqualsDim (a block spanning the
#      space is exact after one application),
#      SubspaceIterationTest.NullSpaceInTheBlockTakesPowerSteps,
#      SubspaceIterationTest.SmallOperatorKeepsItsBlock (that null-space
#      case scaled by 1 ... 1e-16: Orthonormalize's rank test is relative
#      below norm 1),
#      GramEigenTest.SubspaceIterationResolvesGapsTheShiftDwarfs (a
#      shifted zero-diagonal Gram against JacobiEigen on the
#      materialized matrix) and
#      SpectralInitTest.EigensolvesConvergeCloseToTightSolves (every mode
#      of the gowalla preset converges within sin 1e-5 of a tol-1e-13
#      solve). The set-up path's byte contracts run in it too:
#      CsfProperties.FinalizeSumsDuplicatesInInsertionOrder (Finalize's
#      counting passes against an insertion-order oracle: entries, value
#      bits and exact capacity, binary and real, empty modes, dim_k = 1),
#      SocialHausdorffTest.ListsMatchTheSortedVectorReference (every
#      user's friend list and pool against the sorted-vector construction,
#      Social and Self, friend cap off and binding, pools 0, >= J, < J and
#      default, J not a multiple of 64),
#      LocationEntropyTest.TensorEntropyIsBitwiseThatOfItsPerPoiCounts and
#      RngTest.UniformIntMatchesTheTwoDivisionFormula. Last, the
#      repository benchmark's smoke test (perfbench/smoke_test.py) builds
#      perfbench and runs every BENCHMARK.json workload at tiny scale, so
#      a change that breaks the benchmark's build or its output checks
#      fails here.
#   2. Sanitizer build: configure with AddressSanitizer + UBSan and run
#      the FULL test suite (which again includes the labeled suites)
#      under the instrumented binaries.
#   3. ThreadSanitizer build: configure with TCSS_SANITIZE=thread and run
#      the determinism + obs + proptest + server + dist suites: determinism
#      drives the thread pool, every ParallelReduce site (the sharded
#      losses and MTTKRP; LossDeterminismTest.TouchedRowMergesMatchFull-
#      BufferMerges holds the touched-row merges of the L2 entry loop and
#      the Hausdorff minibatch to full-buffer merges at 1/2/3/8 threads),
#      and multi-threaded training end to end; obs
#      hammers the sharded metric registry from many threads; proptest
#      re-runs the differential-oracle properties, whose kernel
#      equalities execute at 1/2/8 threads, and the exact
#      scan suite, which rebuilds the scan panel on the serving thread
#      while a writer thread storms the model file; the server
#      chaos harness replays its storms — with TCSS_SERVER_SOAK=10000 so
#      the mixed-traffic soak pushes >=10k requests through the full
#      acceptor/reader/dispatcher thread web under TSan, its deadline
#      requests making reader threads' admission read the service's
#      per-tier latency EWMA while the dispatcher writes it; the dist
#      suite runs coordinator + worker fleets (acceptor, per-session
#      readers, heartbeat threads, kill/partition recovery) in one
#      process, where TSan sees every cross-thread edge; and the stream
#      suite drives its differential gate at 1/2/8 threads plus the
#      ingest-during-reload-storm soak (dispatcher ingesting while a
#      writer thread swaps and tears the model file). Any data race in
#      the parallel engine, the telemetry, the serving front-end, the
#      distributed engine, or the streaming engine fails here.
#
#   tools/check.sh [asan-build-dir] [tsan-build-dir]
#                  (defaults: build-asan, build-tsan; the plain stage
#                   uses/creates ./build)
#
# Any test failure or sanitizer report (heap overflow, UB, leak, race)
# fails.
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
# TSan is mutually exclusive with ASan, hence the separate tree. Only the
# determinism, obs, proptest, kernels, server, dist, and stream labels
# run here: they are the suites that exercise concurrency
# (ThreadPool, the ParallelReduce sites — the L2-head CSF entry loop,
# negative sampling, the Hausdorff minibatch and MTTKRP modes 1/2 —
# multi-threaded training, concurrent metric recording, the
# multi-threaded kernel-equality properties, the scan panel rebuilt
# under a reload storm, the social Hausdorff kernels (per-thread
# scratch) at 1/2/8 threads, the L2 entry loop's register panels at ten
# ranks (KernelEquivalenceTest.RewrittenLossBitIdenticalScalarVsNative
# at 1/2/8 threads), the server's acceptor/reader/dispatcher
# threads, the distributed coordinator/worker fleets, and the streaming
# ingest path under reload storms); the rest of the suite is
# single-threaded and already covered by stage 2.
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTCSS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
# The chaos soak gates this stage at >=10k requests (see tests/CMakeLists).
export TCSS_SERVER_SOAK=10000
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -L "determinism|obs|proptest|kernels|server|dist|stream"

echo "sanitizer check passed"
