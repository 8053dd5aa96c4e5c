#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# rebuild a sanitizer shard (ASan+UBSan) and run the observability and
# concurrency-heavy tests under it, then rebuild a ThreadSanitizer shard
# and run the concurrency stress test under it.
#
# --bench-smoke additionally runs one tiny iteration of every benchmark
# binary — not for numbers, just to prove the harnesses still execute
# (CI keeps them from bit-rotting between perf sessions). Each run writes
# its BENCH_<name>.json trajectory point to build/bench-out/; when
# bench/baselines/ holds checked-in points the smoke also runs
# scripts/bench_compare.py against them, gating the deterministic
# sim-clock metrics, plus the comparer's own --self-test.
#
# --faults additionally runs the fault-injection suite, the WAL/storage
# crash and recovery tests and a widened fault storm (100 seeds instead of
# the in-tree 50) under ASan+UBSan, so injected failure paths are exercised
# with memory checking on.
#
# --overload runs the admission/QoS suite under ThreadSanitizer plus a
# widened overload storm (25 seeds instead of the in-tree 10), so the
# admission controller, circuit breakers and cooperative cancellation are
# exercised with race checking on.
#
# --analyze runs the static-enforcement shard: the heaven_analyze
# whole-project checker (tools/heaven_analyze — lock-order acyclicity,
# guard coverage, clock discipline, metrics completeness, pool-task
# isolation) including its fixture self-test, then a clang build of all of
# src/ with thread-safety analysis promoted to errors, a two-sided compile
# check that the analysis has teeth (tests/tsa_negative_check.cc), and
# clang-tidy over src/ when available. heaven_analyze always runs (its
# structural backend needs only python3); the clang pieces are skipped
# with a notice when clang++ is missing — unless HEAVEN_REQUIRE_CLANG=1
# (set on CI), which turns any missing clang tooling into a hard failure
# so the shard can never silently pass by skipping.
#
# --ubsan builds a standalone UndefinedBehaviorSanitizer shard (distinct
# from the ASan shard, whose UBSan runs without -fno-sanitize-recover) and
# runs the concurrency- and arithmetic-heavy tests under it.
#
# --fuzz-smoke builds the fuzz harnesses (fuzz/) with the deterministic
# standalone engine under ASan+UBSan and replays every checked-in corpus
# entry plus a fixed-seed mutation budget — same inputs on every machine,
# ~30s of execution. Crashers found by longer libFuzzer runs land in
# fuzz/corpus/*/regress_* and are re-executed here forever.
#
# --perfbench-smoke builds the repo benchmark (perfbench/, which compiles
# src/ on its own) into build/perfbench and runs every workload briefly,
# untraced and traced, failing on a non-zero exit (a build error, a wrong
# answer or a missing metric). Like --bench-smoke it proves the harness
# still builds and runs; the numbers are not gated.
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--bench-smoke] [--faults]
#                         [--analyze] [--ubsan] [--overload] [--fuzz-smoke]
#                         [--perfbench-smoke]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_ASAN=1
RUN_TSAN=1
RUN_BENCH_SMOKE=0
RUN_FAULTS=0
RUN_ANALYZE=0
RUN_UBSAN=0
RUN_OVERLOAD=0
RUN_FUZZ_SMOKE=0
RUN_PERFBENCH_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) RUN_ASAN=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --bench-smoke) RUN_BENCH_SMOKE=1 ;;
    --faults) RUN_FAULTS=1 ;;
    --analyze) RUN_ANALYZE=1 ;;
    --ubsan) RUN_UBSAN=1 ;;
    --overload) RUN_OVERLOAD=1 ;;
    --fuzz-smoke) RUN_FUZZ_SMOKE=1 ;;
    --perfbench-smoke) RUN_PERFBENCH_SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== lint =="
scripts/lint.sh

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "== tier-1: ctest =="
ctest --test-dir build -j"$(nproc)" --output-on-failure

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== sanitizer shard (ASan+UBSan) =="
  cmake -B build-asan -S . -DHEAVEN_ASAN=ON -DCMAKE_BUILD_TYPE=Debug \
      >/dev/null
  cmake --build build-asan -j"$(nproc)" \
      --target observability_test metrics_test heaven_db_test \
               tape_library_test concurrency_stress_test snapshot_test
  ./build-asan/tests/observability_test
  ./build-asan/tests/metrics_test
  ./build-asan/tests/heaven_db_test
  ./build-asan/tests/tape_library_test
  ./build-asan/tests/concurrency_stress_test
  ./build-asan/tests/snapshot_test
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== sanitizer shard (TSan) =="
  cmake -B build-tsan -S . -DHEAVEN_TSAN=ON -DCMAKE_BUILD_TYPE=Debug \
      >/dev/null
  cmake --build build-tsan -j"$(nproc)" \
      --target concurrency_stress_test heaven_db_test snapshot_test \
               metrics_test
  ./build-tsan/tests/concurrency_stress_test
  ./build-tsan/tests/heaven_db_test
  ./build-tsan/tests/snapshot_test
  ./build-tsan/tests/metrics_test
  # The snapshot-pin storm once raced inside std::atomic<shared_ptr>; the
  # repeat keeps an intermittent report from slipping through unnoticed.
  ./build-tsan/tests/snapshot_test \
      --gtest_filter='*ReaderStormAgainstMetadataChurn*' --gtest_repeat=30
  # CreateCollection checks and registers the name inside one mutation;
  # the repeat gives a lost race twenty chances to show.
  ./build-tsan/tests/heaven_db_test \
      --gtest_filter='*ConcurrentCreateCollection*' --gtest_repeat=20
  # Aggregate caches only under a try-lock of the mutator lock and an
  # unchanged snapshot version; twenty repeats race it against UpdateRegion.
  ./build-tsan/tests/heaven_db_test \
      --gtest_filter='*ConcurrentAggregateAndUpdate*' --gtest_repeat=20
  # Prefetch claims single-flight leaders beside query fetches; twenty
  # repeats of the cold storm race them for the same super-tiles.
  ./build-tsan/tests/concurrency_stress_test \
      --gtest_filter='PrefetchStormTest.*' --gtest_repeat=20
fi

if [[ "$RUN_FAULTS" == 1 ]]; then
  echo "== fault-injection shard (ASan+UBSan) =="
  cmake -B build-asan -S . -DHEAVEN_ASAN=ON -DCMAKE_BUILD_TYPE=Debug \
      >/dev/null
  cmake --build build-asan -j"$(nproc)" \
      --target fault_injection_test wal_engine_test storage_test \
               concurrency_stress_test
  # Includes the kill-at-every-write-point sweeps: the tape writers, the
  # catalog mutators (delete, reimport, update; also with a checkpoint on
  # every commit), the recovering open, the crash-safe file replace and the
  # journal close; then the storage-level checkpoint sweep and the
  # free-list recovery tests.
  ./build-asan/tests/fault_injection_test
  ./build-asan/tests/wal_engine_test
  ./build-asan/tests/storage_test
  HEAVEN_FAULT_STORM_SEEDS=100 ./build-asan/tests/concurrency_stress_test \
      --gtest_filter='FaultStormTest.*'
fi

if [[ "$RUN_OVERLOAD" == 1 ]]; then
  echo "== overload shard (TSan) =="
  cmake -B build-tsan -S . -DHEAVEN_TSAN=ON -DCMAKE_BUILD_TYPE=Debug \
      >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target admission_test
  ./build-tsan/tests/admission_test
  HEAVEN_OVERLOAD_STORM_SEEDS=25 ./build-tsan/tests/admission_test \
      --gtest_filter='OverloadStormTest.*'
fi

if [[ "$RUN_ANALYZE" == 1 ]]; then
  echo "== static analysis shard =="

  echo "-- heaven_analyze fixture self-test"
  python3 tools/heaven_analyze/analyze.py --self-test

  echo "-- heaven_analyze over src/"
  mkdir -p build/analyze-out
  ANALYZE_BACKEND=auto
  if [[ "${HEAVEN_REQUIRE_CLANG:-0}" == 1 ]]; then
    # Fail-closed on CI: the clang frontend must actually load; a missing
    # libclang turns into a hard error instead of a silent fallback.
    ANALYZE_BACKEND=clang
  fi
  python3 tools/heaven_analyze/analyze.py --root src \
      --backend "$ANALYZE_BACKEND" \
      --dot-out build/analyze-out/lock_order.dot \
      --report-out build/analyze-out/analyze_report.txt

  echo "== static analysis shard (clang thread-safety) =="
  if ! command -v clang++ >/dev/null 2>&1; then
    if [[ "${HEAVEN_REQUIRE_CLANG:-0}" == 1 ]]; then
      echo "FAIL: HEAVEN_REQUIRE_CLANG=1 but clang++ is not installed —" \
           "the thread-safety shard must not be skipped on CI" >&2
      exit 1
    fi
    echo "-- clang++ not found; skipping the thread-safety analysis shard"
    echo "   (install clang to run it; CI always does)"
  else
    TSA_FLAGS="-Werror=thread-safety -Werror=thread-safety-beta"
    cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DCMAKE_BUILD_TYPE=Debug -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DCMAKE_CXX_FLAGS="$TSA_FLAGS" >/dev/null
    cmake --build build-analyze -j"$(nproc)" \
        --target heaven_common heaven_array heaven_storage heaven_tertiary \
                 heaven_core heaven_rasql

    echo "-- negative compile check (the analysis must have teeth)"
    TSA_CHECK="clang++ -std=c++20 -Isrc -fsyntax-only \
        -Wthread-safety -Wthread-safety-beta $TSA_FLAGS \
        tests/tsa_negative_check.cc"
    # Positive control: the snippet's correct half compiles cleanly.
    $TSA_CHECK
    # Negative control: the misuse half must be rejected.
    if $TSA_CHECK -DHEAVEN_TSA_NEGATIVE_TEST 2>/dev/null; then
      echo "FAIL: tsa_negative_check.cc compiled with" \
           "-DHEAVEN_TSA_NEGATIVE_TEST — thread-safety analysis is not" \
           "catching violations" >&2
      exit 1
    fi
    echo "-- negative compile check rejected the misuse, as it must"

    if command -v clang-tidy >/dev/null 2>&1; then
      echo "-- clang-tidy (src/)"
      find src -name '*.cc' -print0 \
        | xargs -0 -P "$(nproc)" -n 4 clang-tidy -p build-analyze --quiet
    elif [[ "${HEAVEN_REQUIRE_CLANG:-0}" == 1 ]]; then
      echo "FAIL: HEAVEN_REQUIRE_CLANG=1 but clang-tidy is not installed" >&2
      exit 1
    else
      echo "-- clang-tidy not found; skipping"
    fi
  fi
fi

if [[ "$RUN_UBSAN" == 1 ]]; then
  echo "== sanitizer shard (UBSan, standalone) =="
  cmake -B build-ubsan -S . -DHEAVEN_UBSAN=ON -DCMAKE_BUILD_TYPE=Debug \
      >/dev/null
  cmake --build build-ubsan -j"$(nproc)" \
      --target thread_annotations_test concurrency_stress_test \
               heaven_db_test super_tile_test compression_test
  ./build-ubsan/tests/thread_annotations_test
  ./build-ubsan/tests/concurrency_stress_test
  ./build-ubsan/tests/heaven_db_test
  ./build-ubsan/tests/super_tile_test
  ./build-ubsan/tests/compression_test
fi

if [[ "$RUN_FUZZ_SMOKE" == 1 ]]; then
  echo "== fuzz smoke (standalone engine, ASan+UBSan) =="
  # The standalone engine replays fixed inputs, so this shard is
  # deterministic under any compiler; ASan+UBSan catch the memory and
  # arithmetic bugs the harnesses are hunting.
  cmake -B build-fuzz -S . -DHEAVEN_FUZZ=ON \
      -DHEAVEN_FUZZ_ENGINE=standalone -DHEAVEN_ASAN=ON \
      -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-fuzz -j"$(nproc)" \
      --target fuzz_bitvector fuzz_registry fuzz_export_journal \
               fuzz_json fuzz_rasql gen_seeds

  echo "-- corpus freshness (gen_seeds must reproduce the checked-in seeds)"
  ./build-fuzz/fuzz/gen_seeds build-fuzz/corpus-regen >/dev/null
  for generated in build-fuzz/corpus-regen/*/*; do
    rel=${generated#build-fuzz/corpus-regen/}
    if ! cmp -s "$generated" "fuzz/corpus/$rel"; then
      echo "FAIL: fuzz/corpus/$rel is stale — regenerate with" \
           "'build-fuzz/fuzz/gen_seeds fuzz/corpus'" >&2
      exit 1
    fi
  done

  for surface in bitvector registry export_journal json rasql; do
    echo "-- fuzz_$surface"
    ./build-fuzz/fuzz/fuzz_"$surface" -runs=256 fuzz/corpus/"$surface"
  done
fi

if [[ "$RUN_BENCH_SMOKE" == 1 ]]; then
  echo "== bench smoke =="
  BENCH_OUT=build/bench-out
  rm -rf "$BENCH_OUT"
  mkdir -p "$BENCH_OUT"
  for bench in build/bench/bench_*; do
    [[ -x "$bench" ]] || continue
    echo "-- $(basename "$bench")"
    "$bench" --benchmark_min_time=0.01 --benchmark_repetitions=1 \
        --out_dir="$BENCH_OUT" >/dev/null
  done

  echo "-- bench_compare self-test"
  python3 scripts/bench_compare.py --self-test >/dev/null

  if compgen -G "bench/baselines/BENCH_*.json" >/dev/null; then
    echo "-- bench trajectory vs bench/baselines/"
    python3 scripts/bench_compare.py bench/baselines "$BENCH_OUT"
  else
    echo "-- no bench/baselines/ yet; skipping trajectory gate"
  fi
fi

if [[ "$RUN_PERFBENCH_SMOKE" == 1 ]]; then
  echo "== perfbench smoke =="
  for trace in 0 1; do
    echo "-- perfbench/run.py --workload all --trace $trace"
    CARGO_TARGET_DIR=build python3 perfbench/run.py --workload all --seed 1 \
        --seconds 2 --trace "$trace"
  done
fi

echo "== all checks passed =="
