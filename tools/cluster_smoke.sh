#!/usr/bin/env bash
# Cluster smoke: end-to-end check of the router plane (DESIGN.md §14)
# over real processes and real loopback sockets.
#
#   1. Boots three backend shard servers: group 0 = replicas A and B
#      (both serving partition 0/2), group 1 = replica C (partition
#      1/2). A and B publish admin planes, so the router probes them
#      actively; C is health-checked passively.
#   2. Boots `proximity_cli route` over a shard map built from the
#      published ports, then runs a closed-loop client load through the
#      router — every request must come back OK.
#   3. kill -9 one group-0 replica (A) in the middle of a second load,
#      once the router's /statusz counts a third of that load. The load
#      must still see every request answered OK (the router retries dead
#      legs on the surviving replica) and /statusz must report the
#      failover.
#   4. Relaunches A on its original ports and waits for the health
#      probe to bring group 0 back to healthy=2 — replacement capacity
#      reattaches with zero intervention.
#   5. Rolling restart: SIGTERM B (graceful drain) a third of the way
#      into a third load; again zero failed client requests, and B
#      itself must exit 0 with a clean drain.
#   6. SIGTERMs the router and asserts the final stats line reports the
#      failover plus zero frontend protocol errors.
#
# Registered as a ctest test labeled `cluster` (tools/CMakeLists.txt);
# CI's cluster-soak lane runs it directly.
#
# Usage: tools/cluster_smoke.sh [--build-dir DIR]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done
CLI="$BUILD_DIR/tools/proximity_cli"
if [[ ! -x "$CLI" ]]; then
  echo "cluster_smoke: $CLI not built" >&2
  exit 2
fi

N=100
CONNS=2
CORPUS=2000
# The kill and restart loads. Long enough that the fault, fired once a
# third of a load has been answered, lands mid-load even on a fast
# multi-core host.
N2=$((N * 30))

TMP=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

# wait_port FILE PID NAME — waits for an ephemeral port to be
# published, failing fast when the process died instead.
wait_port() {
  local file=$1 pid=$2 name=$3
  for _ in $(seq 1 1200); do
    [[ -s "$file" ]] && return 0
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "cluster_smoke: FAIL — $name exited before publishing a port" >&2
      cat "$TMP/$name.log" >&2 || true
      return 1
    fi
    sleep 0.1
  done
  echo "cluster_smoke: FAIL — $name never published its port" >&2
  return 1
}

# start_backend NAME PARTITION LISTEN ADMIN — boots one shard server.
# LISTEN/ADMIN are either 127.0.0.1:0 (ephemeral, published through
# port files) or the fixed endpoints of a relaunch. ADMIN may be
# "none" for a probe-less replica.
start_backend() {
  local name=$1 part=$2 listen=$3 admin=$4
  local args=(serve --listen "$listen" "port_file=$TMP/$name.port"
              "partition=$part" "corpus=$CORPUS" quiet=true)
  if [[ "$admin" != "none" ]]; then
    args+=(--admin "$admin" "admin_port_file=$TMP/$name.admin_port")
  fi
  "$CLI" "${args[@]}" >"$TMP/$name.log" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  eval "${name}_PID=$pid"
  wait_port "$TMP/$name.port" "$pid" "$name"
}

echo "== cluster_smoke: starting 3 backends (A+B = group 0, C = group 1) =="
start_backend A 0/2 127.0.0.1:0 127.0.0.1:0
start_backend B 0/2 127.0.0.1:0 127.0.0.1:0
start_backend C 1/2 127.0.0.1:0 none
A_PORT=$(cat "$TMP/A.port"); A_ADMIN=$(cat "$TMP/A.admin_port")
B_PORT=$(cat "$TMP/B.port"); B_ADMIN=$(cat "$TMP/B.admin_port")
C_PORT=$(cat "$TMP/C.port")
echo "backends up: A=:$A_PORT B=:$B_PORT (group 0), C=:$C_PORT (group 1)"

cat >"$TMP/shard_map" <<EOF
# cluster_smoke topology
shard 0 rpc=127.0.0.1:$A_PORT admin=127.0.0.1:$A_ADMIN
shard 0 rpc=127.0.0.1:$B_PORT admin=127.0.0.1:$B_ADMIN
shard 1 rpc=127.0.0.1:$C_PORT
EOF

echo "== cluster_smoke: starting the router =="
"$CLI" route "shard_map=$TMP/shard_map" --listen 127.0.0.1:0 \
  "port_file=$TMP/router.port" \
  --admin 127.0.0.1:0 "admin_port_file=$TMP/router.admin_port" \
  probe_interval_ms=100 replica_retry_ms=300 quiet=true \
  >"$TMP/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_port "$TMP/router.port" "$ROUTER_PID" router
PORT=$(cat "$TMP/router.port")
ADMIN="http://127.0.0.1:$(cat "$TMP/router.admin_port")"
echo "router up on 127.0.0.1:$PORT"

# router_queries — the router's /statusz query count, empty when the
# admin plane does not answer.
router_queries() {
  curl -fsS "$ADMIN/statusz" 2>/dev/null | grep "^cluster: queries=" |
    sed 's/^cluster: queries=\([0-9]*\).*/\1/' || true
}

# wait_progress BASE COUNT LOAD_PID — returns once the router has
# counted COUNT queries beyond BASE; fails when the load exits first.
wait_progress() {
  local target=$(($1 + $2)) load_pid=$3 q
  for _ in $(seq 1 6000); do
    q=$(router_queries)
    [[ -n "$q" && "$q" -ge "$target" ]] && return 0
    if ! kill -0 "$load_pid" 2>/dev/null; then
      echo "cluster_smoke: FAIL — the load ended before the router" \
           "counted $2 of its queries" >&2
      return 1
    fi
    sleep 0.01
  done
  echo "cluster_smoke: FAIL — the router never counted $2 load queries" >&2
  return 1
}

# check_load LOG — the client must have seen every request answered OK.
check_load() {
  local log=$1 n=$2
  if ! grep -q "sent=$n ok=$n " "$log"; then
    echo "cluster_smoke: FAIL — client did not see $n OK answers" >&2
    cat "$log" >&2
    return 1
  fi
  if ! grep -q "transport_errors=0" "$log"; then
    echo "cluster_smoke: FAIL — client hit transport errors" >&2
    cat "$log" >&2
    return 1
  fi
}

echo "== cluster_smoke: phase 1 — load through the healthy cluster =="
"$CLI" client "connect=127.0.0.1:$PORT" "n=$N" "conns=$CONNS" \
  "corpus=$CORPUS" quiet=true | tee "$TMP/load1.log"
check_load "$TMP/load1.log" "$N"
if ! curl -fsS "$ADMIN/healthz" | grep -q "serving"; then
  echo "cluster_smoke: FAIL — router /healthz did not answer 'serving'" >&2
  exit 1
fi
if ! curl -fsS "$ADMIN/statusz" | grep -q "cluster: groups=2"; then
  echo "cluster_smoke: FAIL — router /statusz lacks the cluster block" >&2
  exit 1
fi

echo "== cluster_smoke: phase 2 — kill -9 replica A under load =="
# Longer load in the background; kill A once a third of it has been
# answered. Every request must still be answered OK: the router fails
# dead legs over to B.
BASE=$(router_queries)
"$CLI" client "connect=127.0.0.1:$PORT" "n=$N2" "conns=$CONNS" \
  "corpus=$CORPUS" quiet=true >"$TMP/load2.log" 2>&1 &
LOAD_PID=$!
wait_progress "$BASE" $((N2 / 3)) "$LOAD_PID"
kill -9 "$A_PID" 2>/dev/null || true
echo "killed A (pid $A_PID) after $(($(router_queries) - BASE)) of $N2" \
     "load queries"
LOAD_RC=0
wait "$LOAD_PID" || LOAD_RC=$?
cat "$TMP/load2.log"
if [[ "$LOAD_RC" -ne 0 ]]; then
  echo "cluster_smoke: FAIL — load exited $LOAD_RC during the kill" >&2
  exit 1
fi
check_load "$TMP/load2.log" "$N2"

FAILOVERS=$(curl -fsS "$ADMIN/statusz" | grep "^cluster: queries=" |
            sed 's/.*failovers=\([0-9]*\).*/\1/')
if [[ -z "$FAILOVERS" || "$FAILOVERS" -lt 1 ]]; then
  echo "cluster_smoke: FAIL — /statusz reports no failover after the kill" >&2
  curl -fsS "$ADMIN/statusz" >&2 || true
  exit 1
fi
echo "zero failed client requests across the kill; failovers=$FAILOVERS"

echo "== cluster_smoke: phase 3 — relaunch A, wait for probe recovery =="
# Same rpc + admin ports as before, so the static shard map stays
# valid; the health probe must flip group 0 back to healthy=2.
start_backend A 0/2 "127.0.0.1:$A_PORT" "127.0.0.1:$A_ADMIN"
RECOVERED=0
for _ in $(seq 1 100); do
  if curl -fsS "$ADMIN/statusz" | grep -q "backend 0: replicas=2 healthy=2"; then
    RECOVERED=1
    break
  fi
  sleep 0.1
done
if [[ "$RECOVERED" -ne 1 ]]; then
  echo "cluster_smoke: FAIL — group 0 never returned to healthy=2" >&2
  curl -fsS "$ADMIN/statusz" >&2 || true
  exit 1
fi
echo "replica A reattached: group 0 healthy=2"

echo "== cluster_smoke: phase 4 — rolling restart of B under load =="
BASE=$(router_queries)
"$CLI" client "connect=127.0.0.1:$PORT" "n=$N2" "conns=$CONNS" \
  "corpus=$CORPUS" quiet=true >"$TMP/load3.log" 2>&1 &
LOAD_PID=$!
wait_progress "$BASE" $((N2 / 3)) "$LOAD_PID"
kill -TERM "$B_PID"
echo "SIGTERM to B (pid $B_PID) after $(($(router_queries) - BASE)) of" \
     "$N2 load queries"
B_RC=0
wait "$B_PID" || B_RC=$?
LOAD_RC=0
wait "$LOAD_PID" || LOAD_RC=$?
cat "$TMP/load3.log"
if [[ "$B_RC" -ne 0 ]]; then
  echo "cluster_smoke: FAIL — backend B exited $B_RC after SIGTERM" >&2
  cat "$TMP/B.log" >&2
  exit 1
fi
if [[ "$LOAD_RC" -ne 0 ]]; then
  echo "cluster_smoke: FAIL — load exited $LOAD_RC during the drain" >&2
  exit 1
fi
check_load "$TMP/load3.log" "$N2"
echo "zero failed client requests across B's graceful drain"

echo "== cluster_smoke: SIGTERM router drain =="
kill -TERM "$ROUTER_PID"
ROUTER_RC=0
wait "$ROUTER_PID" || ROUTER_RC=$?
cat "$TMP/router.log"
if [[ "$ROUTER_RC" -ne 0 ]]; then
  echo "cluster_smoke: FAIL — router exited $ROUTER_RC after SIGTERM" >&2
  exit 1
fi

fail=0
if ! grep -q "protocol_errors=0" "$TMP/router.log"; then
  echo "cluster_smoke: FAIL — router frontend protocol errors" >&2
  fail=1
fi
if ! grep -qE "^cluster: queries=[0-9]+ .*failovers=[1-9]" "$TMP/router.log"; then
  echo "cluster_smoke: FAIL — final router stats lack the failover" >&2
  fail=1
fi
if [[ "$fail" -ne 0 ]]; then
  exit 1
fi

echo "cluster_smoke: kill, reattach and rolling restart all invisible" \
     "to clients"
