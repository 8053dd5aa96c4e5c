#!/usr/bin/env bash
# Source lints that need no compiler — cheap enough to run on every commit.
#
#  1. Raw standard-library lock primitives are banned in src/ outside the
#     wrapper header. Everything must go through heaven::Mutex, MutexLock
#     and CondVar in common/thread_annotations.h, or Clang thread-safety
#     analysis cannot see the lock discipline.
#  2. HEAVEN_CHECK on a Status/Result is banned in src/: aborting on a
#     fallible operation hides recoverable I/O errors. Propagate with
#     HEAVEN_RETURN_IF_ERROR / HEAVEN_ASSIGN_OR_RETURN instead. (Tests may
#     still assert on .ok().)
#  3. Every header under src/ carries an include guard derived from its
#     path: src/foo/bar.h -> HEAVEN_FOO_BAR_H_.
#  4. Ad-hoc metric plumbing is banned outside src/common/: new Ticker /
#     HistogramKind enums and privately constructed Statistics objects
#     fragment the observability surface. New counters extend the enums
#     in common/statistics.h; gauges register with the MetricsRegistry
#     (common/metrics.h) owned by HeavenDb, so every number shows up in
#     \metrics, ExportMetrics and the bench reports.
#  5. Ad-hoc std::chrono timeout/deadline plumbing is banned in src/
#     outside common/admission.h: wall-clock sleeps, timed waits and
#     chrono-typed deadlines bypass the simulated clock, so they are
#     invisible to the cost model, non-deterministic across machines and
#     unenforceable by admission control. Deadlines ride a
#     QueryContext/Deadline (common/admission.h) on the SimClock;
#     std::chrono stays legal only for wall-clock *measurement*
#     (histograms, metric timestamps).
#  6. Every Mutex data member in a src/ header must declare its place in
#     the lock hierarchy: an adjacent ACQUIRED_AFTER / ACQUIRED_BEFORE
#     annotation, or an explicit `// analyze: leaf-lock` marker for locks
#     that never nest around another. The heaven_analyze tool
#     (tools/heaven_analyze) checks the resulting order for cycles; this
#     lint just refuses unclassified locks.
#
# Usage: scripts/lint.sh [--self-test]
set -uo pipefail

cd "$(dirname "$0")/.."

# Rule 6 matcher, factored out so --self-test can negative-test it: prints
# Mutex member declarations lacking both a lock-order annotation and the
# leaf-lock marker. The anchor at line start keeps local `MutexLock`
# guards out of scope.
rule6_violations() {
  grep -nE '^[[:space:]]*(mutable[[:space:]]+)?Mutex[[:space:]]+[a-zA-Z_]' \
       "$@" \
    | grep -vE 'ACQUIRED_(AFTER|BEFORE)|analyze: leaf-lock' || true
}

if [[ "${1:-}" == "--self-test" ]]; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  cat > "$tmp/bad.h" <<'EOF'
  mutable Mutex naked_;
EOF
  cat > "$tmp/good.h" <<'EOF'
  mutable Mutex leaf_;  // analyze: leaf-lock
  Mutex ordered_ ACQUIRED_AFTER("HeavenDb::db_mu_");
  Mutex before_ ACQUIRED_BEFORE("TapeLibrary::mu_");
EOF
  if [[ -z "$(rule6_violations "$tmp/bad.h")" ]]; then
    echo "lint self-test: rule 6 missed an unannotated mutex member" >&2
    exit 1
  fi
  if [[ -n "$(rule6_violations "$tmp/good.h")" ]]; then
    echo "lint self-test: rule 6 false positive on annotated members" >&2
    exit 1
  fi
  echo "lint: self-test ok"
  exit 0
fi

fail=0

note() {
  echo "lint: $1" >&2
  echo "$2" >&2
  fail=1
}

# --- 1. raw lock primitives -------------------------------------------------
allowed='src/common/thread_annotations\.h'
pattern='std::(mutex|shared_mutex|recursive_mutex|condition_variable(_any)?|lock_guard|unique_lock|shared_lock|scoped_lock)\b'
hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cc' \
         | grep -vE "^($allowed):" || true)
if [[ -n "$hits" ]]; then
  note "raw std lock primitives in src/ (use common/thread_annotations.h wrappers):" "$hits"
fi

# --- 2. CHECK on fallible operations ---------------------------------------
hits=$(grep -rnE 'HEAVEN_CHECK\([^)]*\.(ok|status)\(\)' src/ || true)
if [[ -n "$hits" ]]; then
  note "HEAVEN_CHECK on a Status/Result in src/ (propagate the error instead):" "$hits"
fi

# --- 3. header guards match paths -------------------------------------------
while IFS= read -r header; do
  guard="HEAVEN_$(echo "${header#src/}" | tr 'a-z/.' 'A-Z__')_"
  if ! grep -q "#ifndef ${guard}\$" "$header"; then
    note "header guard mismatch:" "  $header expects #ifndef $guard"
  fi
done < <(find src -name '*.h' | sort)

# --- 4. metric plumbing stays in common/ -------------------------------------
# One Statistics per database: HeavenDb owns it (allowlisted); everyone
# else takes a Statistics* / the MetricsRegistry. New counter kinds extend
# the enums in common/statistics.h rather than defining parallel ones.
allowed='src/heaven/heaven_db\.h'
pattern='enum class (Ticker|HistogramKind)\b|\bStatistics +[a-z_]+ *[;{=]'
hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cc' \
         | grep -v '^src/common/' | grep -vE "^($allowed):" || true)
if [[ -n "$hits" ]]; then
  note "ad-hoc metric plumbing outside src/common/ (extend common/statistics.h enums; register gauges with the MetricsRegistry in common/metrics.h):" "$hits"
fi

# --- 5. timeouts and deadlines go through common/admission.h ------------------
# Wall-clock sleeps / timed waits / chrono deadline variables in src/ are
# invisible to the simulated clock and to admission control. The only
# sanctioned deadline type is Deadline (common/admission.h) on the
# SimClock. Wall-clock *measurement* (steady_clock::now() into a
# histogram) stays legal and is not matched here.
allowed='src/common/admission\.(h|cc)'
pattern='\b(sleep_for|sleep_until|wait_until|try_lock_for|try_lock_until)\b|std::timed_mutex|std::chrono[^;{}()]*\b([Dd]eadline|[Tt]imeout)'
hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cc' \
         | grep -vE "^($allowed):" || true)
if [[ -n "$hits" ]]; then
  note "ad-hoc std::chrono timeout/deadline plumbing in src/ (deadlines ride QueryContext/Deadline from common/admission.h on the SimClock):" "$hits"
fi

# --- 6. mutex members declare their place in the lock order -------------------
# tools/heaven_analyze builds the lock-order graph from these annotations
# (plus observed nesting) and rejects cycles; a member carrying neither an
# order annotation nor the leaf-lock marker is invisible to that check.
hits=$(rule6_violations $(find src -name '*.h' | sort))
if [[ -n "$hits" ]]; then
  note "mutex member without a lock-order annotation in src/ headers (add ACQUIRED_AFTER/ACQUIRED_BEFORE or '// analyze: leaf-lock'; see tools/heaven_analyze):" "$hits"
fi

if [[ "$fail" != 0 ]]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: ok"
