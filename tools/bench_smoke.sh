#!/usr/bin/env bash
# Bench smoke: fast regression gates over the self-measuring benches.
# Every section runs even when an earlier one fails; the script ends with
# a pass/fail table and exits 1 if any section failed.
#
#   1. obs_overhead      — exits non-zero by itself if the span + counter
#                          overhead on the 768-d batch scan exceeds 2%.
#   2. distance_kernels  — --quick sweep; this script fails if the
#                          dispatched l2 dim=768 batch=4096 kernel is not
#                          at least as fast as the portable one
#                          (speedup_vs_portable >= 1.0).
#   3. shard_scaling     — --quick sweep; on hosts with < 4 cores the
#                          monotonic-qps gate is forced to run anyway via
#                          --threads=4 (the bench records the pool size
#                          and a machine-readable skip_reason when the
#                          gate genuinely cannot run). This script fails
#                          if the calling-thread multi-query row (one
#                          FlatIndex, 20k x 768 rows under --quick:
#                          SearchBatch of 32 queries vs 32 Search calls)
#                          reports multi_query_speedup < 2, or if the
#                          bench exits non-zero (a batch result differs
#                          from its Search result).
#   4. serve_load        — --quick closed/open-loop sweep against the
#                          epoll serving front-end over loopback; fails
#                          by itself if any request goes unanswered.
#   5. tenant_isolation  — --quick noisy-neighbor sweep; fails by itself
#                          if the compliant tenant's p99 under a quota'd
#                          DRR flood exceeds 2x its solo baseline, if
#                          the flood never trips the quota, or if any
#                          per-tenant conservation equation breaks.
#   6. quantized_scan    — --quick (100k x 768-d) compressed-vector fast
#                          path; this script fails if the sq8 two-level
#                          search is not >= 1.5x faster than the float32
#                          scan or its recall@10 vs float drops below
#                          0.95 (DESIGN.md §11; the full 1M gate is 2x).
#   7. churn_sweep       — --quick live-corpus churn gates (DESIGN.md
#                          §13): recall@10 after 20% churn must hold
#                          >= 0.95 of a rebuilt-from-scratch oracle, the
#                          slot-arena conservation equation must close,
#                          and on multi-core hosts query p99 under
#                          sustained ingest must stay <= 2x quiet (on
#                          1-core hosts the p99 gate records a
#                          machine-readable skip_reason instead).
#   8. answer_cache      — --quick answer-tier gates (DESIGN.md §15):
#                          answer-hit TTFT must be >= 2x better than a
#                          miss on the same stream, and end-to-end
#                          accuracy must stay within 1 point of the
#                          no-answer-tier baseline.
#
# Emits BENCH_obs.json, BENCH_kernels.json, BENCH_shard.json,
# BENCH_net.json, BENCH_tenant.json, BENCH_quant.json, BENCH_churn.json,
# BENCH_answer.json
# and BENCH_trace.json (serve_load's exported Perfetto trace) into --out
# (default: the build dir), which CI uploads as artifacts. Timing gates on shared runners are noisy, so CI marks
# this job non-blocking; locally it is a quick sanity check that the
# perf story still holds.
#
# Usage: tools/bench_smoke.sh [--build-dir DIR] [--out DIR]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT_DIR="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done
OUT_DIR="${OUT_DIR:-$BUILD_DIR}"
mkdir -p "$OUT_DIR"

cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target obs_overhead distance_kernels shard_scaling serve_load \
  tenant_isolation quantized_scan churn_sweep answer_cache

# Each section runs in its own subshell, so a failing gate ends only its
# section (`exit 1` leaves the subshell) and every later section still
# runs; the summary table and the exit status report all of them.
section_obs_overhead() {
  echo "== bench_smoke: obs_overhead (2% telemetry gate) =="
  "$BUILD_DIR/bench/obs_overhead" --json="$OUT_DIR/BENCH_obs.json"

  # The bench self-gates both ratios; re-check the tracing row from the
  # JSON so a reporting regression (row missing) also fails the smoke.
  TRACE_PCT=$(awk -F'"trace_overhead_pct": ' '
    NF > 1 { split($2, a, ","); print a[1]; exit }
  ' "$OUT_DIR/BENCH_obs.json")
  if [[ -z "$TRACE_PCT" ]]; then
    echo "bench_smoke: FAIL — trace_overhead_pct missing from BENCH_obs.json" >&2
    exit 1
  fi
  echo "trace overhead over spans-only: ${TRACE_PCT}%"
  if ! awk -v p="$TRACE_PCT" 'BEGIN { exit !(p <= 2.0) }'; then
    echo "bench_smoke: FAIL — tracing overhead ${TRACE_PCT}% exceeds 2%" >&2
    exit 1
  fi
}

section_distance_kernels() {
  echo "== bench_smoke: distance_kernels --quick (speedup gate) =="
  # The filter matches no gbench case, so only the sweep runs; an
  # unmatched filter is not an error for the benchmark library.
  "$BUILD_DIR/bench/distance_kernels" --quick \
    --json="$OUT_DIR/BENCH_kernels.json" \
    --benchmark_filter=__skip_gbench__

  SPEEDUP=$(awk -F'"speedup_vs_portable": ' '
    /"dim": 768, "batch": 4096/ { split($2, a, "}"); print a[1]; exit }
  ' "$OUT_DIR/BENCH_kernels.json")

  if [[ -z "$SPEEDUP" ]]; then
    echo "bench_smoke: FAIL — l2/768/4096 cell missing from BENCH_kernels.json" >&2
    exit 1
  fi
  echo "l2 dim=768 batch=4096 speedup_vs_portable=$SPEEDUP"
  if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "bench_smoke: FAIL — dispatched kernel slower than portable" >&2
    exit 1
  fi
}

section_shard_scaling() {
  echo "== bench_smoke: shard_scaling --quick (shard + multi-query gates) =="
  # Small hosts force a 4-thread pool so the gate still runs; the verdict
  # is informational here (timing on loaded runners is noisy) but the
  # bench must complete and the JSON must carry either a verdict or a
  # machine-readable skip_reason.
  SHARD_ARGS=(--quick "--json=$OUT_DIR/BENCH_shard.json")
  if [[ "$(nproc)" -lt 4 ]]; then
    SHARD_ARGS+=(--threads=4)
  fi
  "$BUILD_DIR/bench/shard_scaling" "${SHARD_ARGS[@]}"
  if ! grep -q '"monotonic_1_to_4": \(true\|false\)' \
      "$OUT_DIR/BENCH_shard.json"; then
    echo "bench_smoke: FAIL — shard gate neither ran nor recorded a" \
         "skip_reason" >&2
    grep -q '"skip_reason": "' "$OUT_DIR/BENCH_shard.json" || exit 1
  fi

  MULTI=$(awk -F'"multi_query_speedup": ' '
    NF > 1 { split($2, a, "}"); print a[1]; exit }
  ' "$OUT_DIR/BENCH_shard.json")
  if [[ -z "$MULTI" ]]; then
    echo "bench_smoke: FAIL — multi_query_speedup missing from" \
         "BENCH_shard.json" >&2
    exit 1
  fi
  echo "calling-thread SearchBatch(32) vs 32 Search: multi_query_speedup=$MULTI"
  if ! awk -v s="$MULTI" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "bench_smoke: FAIL — multi-query scan speedup $MULTI below 2x" >&2
    exit 1
  fi
}

section_serve_load() {
  echo "== bench_smoke: serve_load --quick (net front-end) =="
  # serve_load exits non-zero by itself when any request goes unanswered
  # or the driver's conservation equation breaks. --trace-out exports the
  # most interesting tail-sampled trace of the run as Chrome/Perfetto
  # trace_event JSON (CI uploads it with the BENCH_*.json artifacts).
  "$BUILD_DIR/bench/serve_load" --quick --json="$OUT_DIR/BENCH_net.json" \
    --trace-out="$OUT_DIR/BENCH_trace.json"
  if ! grep -q '"traceEvents"' "$OUT_DIR/BENCH_trace.json"; then
    echo "bench_smoke: FAIL — serve_load trace export is not trace_event JSON" >&2
    exit 1
  fi
}

section_tenant_isolation() {
  echo "== bench_smoke: tenant_isolation --quick (noisy-neighbor gate) =="
  # tenant_isolation exits non-zero by itself when the compliant tenant's
  # p99 under the fair-mode flood exceeds 2x solo, the quota never fires,
  # or per-tenant conservation breaks.
  "$BUILD_DIR/bench/tenant_isolation" --quick \
    --json="$OUT_DIR/BENCH_tenant.json"
}

section_quantized_scan() {
  echo "== bench_smoke: quantized_scan --quick (compressed fast-path gate) =="
  "$BUILD_DIR/bench/quantized_scan" --quick \
    --json="$OUT_DIR/BENCH_quant.json"

  QUANT=$(awk -F'"speedup_vs_float": ' '
    /"storage": "sq8"/ { split($2, a, "}"); print a[1]; exit }
  ' "$OUT_DIR/BENCH_quant.json")
  QRECALL=$(awk -F'"recall_at_k": ' '
    /"storage": "sq8"/ { split($2, a, ","); print a[1]; exit }
  ' "$OUT_DIR/BENCH_quant.json")

  if [[ -z "$QUANT" || -z "$QRECALL" ]]; then
    echo "bench_smoke: FAIL — sq8 row missing from BENCH_quant.json" >&2
    exit 1
  fi
  echo "sq8 speedup_vs_float=$QUANT recall@10=$QRECALL"
  if ! awk -v s="$QUANT" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "bench_smoke: FAIL — sq8 two-level search < 1.5x over float scan" >&2
    exit 1
  fi
  if ! awk -v r="$QRECALL" 'BEGIN { exit !(r >= 0.95) }'; then
    echo "bench_smoke: FAIL — sq8 recall@10 vs float below 0.95" >&2
    exit 1
  fi
}

section_churn_sweep() {
  echo "== bench_smoke: churn_sweep --quick (live-corpus churn gates) =="
  # churn_sweep exits non-zero by itself when the recall-after-churn or
  # conservation gate fails, and on multi-core hosts when p99 under
  # ingest exceeds 2x quiet. Mirror the shard-gate handling: the p99
  # verdict must be true/false or null with a machine-readable
  # skip_reason (1-core hosts timeslice queries against the writer, so
  # p99 there measures the scheduler, not the index).
  "$BUILD_DIR/bench/churn_sweep" --quick \
    --json="$OUT_DIR/BENCH_churn.json"
  if ! grep -q '"recall_gate": true' "$OUT_DIR/BENCH_churn.json"; then
    echo "bench_smoke: FAIL — recall-after-churn gate not recorded true" >&2
    exit 1
  fi
  if ! grep -q '"conservation_ok": true' "$OUT_DIR/BENCH_churn.json"; then
    echo "bench_smoke: FAIL — slot-arena conservation gate not true" >&2
    exit 1
  fi
  if ! grep -q '"p99_gate": \(true\|false\)' "$OUT_DIR/BENCH_churn.json"; then
    echo "bench_smoke: churn p99 gate skipped — checking skip_reason"
    grep -q '"p99_skip_reason": "' "$OUT_DIR/BENCH_churn.json" || {
      echo "bench_smoke: FAIL — churn p99 gate neither ran nor recorded" \
           "a skip_reason" >&2
      exit 1
    }
  fi
}

section_answer_cache() {
  echo "== bench_smoke: answer_cache --quick (answer-tier TTFT/accuracy gates) =="
  # answer_cache exits non-zero by itself when any gate fails; re-check
  # the two headline numbers from the JSON so a reporting regression
  # (field missing) also fails the smoke.
  "$BUILD_DIR/bench/answer_cache" --quick \
    --json="$OUT_DIR/BENCH_answer.json"

  ANS_SPEEDUP=$(awk -F'"ttft_speedup": ' '
    NF > 1 { split($2, a, ","); print a[1]; exit }
  ' "$OUT_DIR/BENCH_answer.json")
  ANS_DELTA=$(awk -F'"accuracy_delta_pp": ' '
    NF > 1 { split($2, a, ","); print a[1]; exit }
  ' "$OUT_DIR/BENCH_answer.json")

  if [[ -z "$ANS_SPEEDUP" || -z "$ANS_DELTA" ]]; then
    echo "bench_smoke: FAIL — ttft_speedup/accuracy_delta_pp missing from" \
         "BENCH_answer.json" >&2
    exit 1
  fi
  echo "answer-hit ttft_speedup=$ANS_SPEEDUP accuracy_delta_pp=$ANS_DELTA"
  if ! awk -v s="$ANS_SPEEDUP" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "bench_smoke: FAIL — answer-hit TTFT speedup below 2x" >&2
    exit 1
  fi
  if ! awk -v d="$ANS_DELTA" 'BEGIN { exit !(d <= 1.0) }'; then
    echo "bench_smoke: FAIL — answer-tier accuracy cost exceeds 1 point" >&2
    exit 1
  fi
}

SECTIONS=(obs_overhead distance_kernels shard_scaling serve_load
          tenant_isolation quantized_scan churn_sweep answer_cache)
declare -A RESULT
FAILED=0
for section in "${SECTIONS[@]}"; do
  set +e
  ( set -euo pipefail; "section_$section" )
  rc=$?
  set -e
  if [[ $rc -eq 0 ]]; then
    RESULT[$section]=pass
  else
    RESULT[$section]="FAIL (exit $rc)"
    FAILED=$((FAILED + 1))
  fi
done

echo "== bench_smoke: summary =="
printf '%-18s %s\n' section result
for section in "${SECTIONS[@]}"; do
  printf '%-18s %s\n' "$section" "${RESULT[$section]}"
done
if [[ $FAILED -gt 0 ]]; then
  echo "bench_smoke: FAIL — $FAILED of ${#SECTIONS[@]} sections failed" >&2
  exit 1
fi
echo "bench_smoke: all gates passed"
