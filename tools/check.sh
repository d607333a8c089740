#!/usr/bin/env bash
# Concurrency/telemetry verification matrix:
#   1. PROXIMITY_OBS=ON  — obs + concurrent + shard suites, default shape.
#   2. PROXIMITY_OBS=OFF — the no-op contract: the same suites must build
#      and pass with spans/handles compiled out.
#   3. ThreadSanitizer   — every suite labeled `tsan` (lock-free obs
#      record path, concurrent cache, thread pool, sharded scatter-gather
#      + batching driver) under contention.
#
# Every leg builds the whole test suite (the `proximity_tests` target)
# and selects suites by ctest label (see tests/CMakeLists.txt), so new
# tests join the matrix by labeling, not by editing this script.
#
# Usage: tools/check.sh [--fast|--tsan-only]
#   --fast       skips the TSan configuration (the slowest build).
#   --tsan-only  runs only the TSan configuration (CI runs the ON/OFF
#                matrix as separate jobs).
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=full
case "${1:-}" in
  --fast) MODE=fast ;;
  --tsan-only) MODE=tsan ;;
  "") ;;
  *) echo "unknown flag: $1" >&2; exit 2 ;;
esac

# Suites with cross-thread behavior plus the histogram/stats substrate
# they report through; `net` adds the epoll front-end (unit suite + the
# serve_smoke loopback drain check), `tenant` the multi-tenant registry
# and fair batching, `quant` the compressed scan path (its scan.*
# telemetry test is OBS-gated, so both matrix legs exercise it),
# `cache` the cache's unit suite (Algorithm 1, eviction, adaptive τ),
# `reuse` answer reuse on the one cache (racing two-radius lookups on
# the cache's own lock and the driver's answer path ride TSan).
LABELS='^(obs|concurrent|shard|common|net|tenant|quant|cache|reuse)$'

build_all() {
  cmake --build "$1" -j "$(nproc)" --target proximity_tests proximity_cli
}

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  build_all "$build_dir"
  (cd "$build_dir" && ctest -L "$LABELS" --no-tests=error --output-on-failure)
}

run_tsan() {
  echo "== ThreadSanitizer =="
  cmake -B build-tsan -S . -DPROXIMITY_OBS=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -O1 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  build_all build-tsan
  (cd build-tsan && ctest -L '^tsan$' --no-tests=error --output-on-failure)
}

if [[ "$MODE" == "tsan" ]]; then
  run_tsan
  echo "check.sh: TSan configuration passed"
  exit 0
fi

echo "== [1/3] PROXIMITY_OBS=ON =="
run_suite build-obs-on -DPROXIMITY_OBS=ON

echo "== [2/3] PROXIMITY_OBS=OFF =="
run_suite build-obs-off -DPROXIMITY_OBS=OFF
# The OFF binary must still accept the flag and produce (empty) exports.
(cd build-obs-off && ./tools/proximity_cli info | grep -q "compiled OFF")

if [[ "$MODE" == "full" ]]; then
  echo "== [3/3] ThreadSanitizer =="
  run_tsan
else
  echo "== [3/3] ThreadSanitizer skipped (--fast) =="
fi

echo "check.sh: all configurations passed"
