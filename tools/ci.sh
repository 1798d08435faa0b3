#!/usr/bin/env bash
# Local CI: the gate a change must pass before review.
#
#   tools/ci.sh            default build + full ctest suite
#   tools/ci.sh --quick    default build + unit- and robustness-labeled
#                          tests only (seconds, not minutes — the
#                          inner-loop gate; robustness rides along because
#                          its failure-path tests are fast and guard the
#                          deadline/ladder contracts, see docs/robustness.md),
#                          plus the WallDeadline tests repeated in one
#                          process
#   tools/ci.sh --san      additionally build the asan-ubsan and tsan
#                          presets and run the solver + parallel-engine +
#                          fuzz + incremental-session tests under each (the
#                          suites that exercise raw pointer juggling, the
#                          thread pool and the session's moves and copies)
#
# Presets live in CMakePresets.json; sanitizer builds keep assert() live
# (Debug + -O1), unlike the default RelWithDebInfo build.  Test labels
# (unit / integration / slow) and per-test timeouts are assigned in
# tests/CMakeLists.txt and tools/CMakeLists.txt.

set -euo pipefail
cd "$(dirname "$0")/.."

# Note: a bare -j (cmake --build, ctest) means "no limit" to make and
# greedily consumes the next token in ctest, so always give it a value.
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_sanitized() {
  local preset="$1" builddir="$2"
  echo "=== ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}" \
    --target test_solver --target test_solver_pb --target test_parallel \
    --target test_fuzz --target test_solver_incremental
  for t in test_solver test_solver_pb test_parallel test_fuzz \
           test_solver_incremental; do
    "./${builddir}/tests/${t}"
  done
}

echo "=== default ==="
cmake --preset default
cmake --build --preset default -j "${jobs}"

if [[ "${1:-}" == "--quick" ]]; then
  ctest --preset default -j "${jobs}" -L 'unit|robustness'
  # The wall-deadline tests again, repeated in one process: a warm
  # in-process cache (the depgraph cache) makes later repeats faster than
  # the first, which ctest's fresh process per run never shows.
  ./build/tests/test_resilience --gtest_filter='WallDeadline.*' \
    --gtest_repeat=3
  echo "ci: quick gate green (unit + robustness labels, WallDeadline x3)"
  exit 0
fi

ctest --preset default -j "${jobs}"

if [[ "${1:-}" == "--san" ]]; then
  run_sanitized asan-ubsan build-asan
  run_sanitized tsan build-tsan
fi

echo "ci: all green"
