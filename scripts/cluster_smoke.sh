#!/usr/bin/env bash
# Cluster kill -9 drill: boot a 4-node confserved cluster (fingerprint
# routing, peer cache fill, WAL shipping to the two ring successors),
# accept async jobs on two nodes, and kill -9 both while a batch load is
# in flight across all four endpoints — n3 and n4 are each other's
# neighbors, so one takeover runs the quorum verdict between two live
# followers and the other runs the two-failure path (co-follower died
# with the origin). Assert every accepted job reaches a terminal state
# under its original ID on exactly one survivor while the load fails
# over without errors. Then restart n3 on its stale journal via the
# epoch-handshake -join flow and assert it is re-admitted, truncates the
# superseded jobs, and serves fresh work.
#
# Routing and caching over real sockets are the in-process tests' job:
# forwarding to the fingerprint owner and cache hits on repeats are
# TestClusterRoutesRepeatProblemsToOneOwner, and peer fill is
# TestClusterPeerCacheFillAnswersColdLocalMiss (internal/cluster).
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

PORTS=(8741 8742 8743 8744)
IDS=(n1 n2 n3 n4)
PEERS="n1=http://127.0.0.1:8741,n2=http://127.0.0.1:8742,n3=http://127.0.0.1:8743,n4=http://127.0.0.1:8744"
WORKDIR="$(mktemp -d)"
declare -a PIDS=()

go build -o /tmp/confserved ./cmd/confserved

# A leftover confserved from an earlier run holding one of our ports
# would silently absorb requests and make every assertion meaningless,
# so refuse to start until the ports are actually free.
for p in "${PORTS[@]}"; do
  if curl -s -o /dev/null --max-time 1 "http://127.0.0.1:$p/healthz"; then
    echo "port $p is already in use; kill the stale process first" >&2
    exit 1
  fi
done

cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

start_node() { # index
  local i="$1"
  mkdir -p "$WORKDIR/${IDS[$i]}"
  /tmp/confserved -addr "127.0.0.1:${PORTS[$i]}" -workers 2 \
    -node-id "${IDS[$i]}" -peers "$PEERS" \
    -heartbeat 200ms -suspect-after 2 -dead-after 4 \
    -journal "$WORKDIR/${IDS[$i]}/journal.ndjson" >/dev/null 2>&1 &
  PIDS[$i]=$!
}

for i in 0 1 2 3; do start_node "$i"; done
for p in "${PORTS[@]}"; do
  wait_http "http://127.0.0.1:$p/healthz" 200
  wait_http "http://127.0.0.1:$p/readyz" 200
done
N1="http://127.0.0.1:${PORTS[0]}"
N2="http://127.0.0.1:${PORTS[1]}"
N3="http://127.0.0.1:${PORTS[2]}"
N4="http://127.0.0.1:${PORTS[3]}"

# Phase 1: churn. Accept slow async jobs on n3 and n4 (pinned there by
# the loop-guard header so they land in those journals), let the WAL
# shipper stream them to the followers, then kill -9 both nodes while a
# batch is in flight across all four endpoints.
JOB_IDS=()
for base in "$N3" "$N4"; do
  for i in 1 2; do
    resp="$(curl -sf -X POST -H 'X-Confsynth-Forwarded: smoke' \
      "$base/v1/synthesize?example=1&mode=max-isolation&async=1&timeout=30s")"
    id="$(echo "$resp" | grep -o '"job_id": "[^"]*"' | cut -d'"' -f4)"
    if [ -z "$id" ]; then
      echo "async submit returned no job id: $resp" >&2
      exit 1
    fi
    JOB_IDS+=("$id")
  done
done
sleep 1 # let the shipper stream the submit records to the followers

load 6 80 20 solve "$N1" "$N2" "$N3" "$N4" >"$WORKDIR/churn.out" 2>"$WORKDIR/churn.err" &
BATCH_PID=$!
sleep 0.5
kill -9 "${PIDS[2]}" "${PIDS[3]}"
wait "${PIDS[2]}" 2>/dev/null || true
wait "${PIDS[3]}" 2>/dev/null || true

# The batch must ride out both deaths: dead endpoints are skipped with
# the capped backoff and every request completes elsewhere.
if ! wait "$BATCH_PID"; then
  echo "mid-churn batch failed:" >&2
  cat "$WORKDIR/churn.err" >&2
  exit 1
fi
batch_errors="$(cat "$WORKDIR/churn.out")"
if [ "${batch_errors:-1}" -ne 0 ]; then
  echo "mid-churn batch reported $batch_errors errors, want 0" >&2
  cat "$WORKDIR/churn.err" >&2
  exit 1
fi

# Both deaths must settle into takeovers: n4's followers (n1, n2) run
# the quorum verdict, n3's surviving follower adopts alone after its
# co-follower n4 died with it — exactly one adoption per victim.
takeovers=0
for i in $(seq 1 150); do
  takeovers="$(sum_stat takeovers "$N1" "$N2")"
  if [ "$takeovers" -ge 2 ]; then break; fi
  sleep 0.2
done
if [ "$takeovers" -ne 2 ]; then
  echo "takeovers across survivors = $takeovers, want exactly 2" >&2
  curl -s "$N1/statsz" >&2 || true
  curl -s "$N2/statsz" >&2 || true
  exit 1
fi
# Two deaths detected by different survivors mint two views at one epoch;
# the merge keeps one, and the lost death is re-detected within
# -dead-after beats before the epoch passes 1. Poll, like the takeovers.
epoch=0
for i in $(seq 1 100); do
  epoch="$(stat_of "$N1" epoch)"
  if [ "$epoch" -ge 2 ]; then break; fi
  sleep 0.2
done
if [ "$epoch" -lt 2 ]; then
  echo "survivor epoch $epoch after two deaths, want >= 2" >&2
  exit 1
fi

# Exactly-once: every job the victims accepted reaches a terminal state
# under its original ID on exactly one survivor. A non-terminal job
# answers 200 with "status": queued/running; a terminal one answers with
# the result ("status": sat/...) or, for a deadline-canceled
# max-isolation run, a 4xx error. Anything but 404 means the node knows
# the job; what is forbidden is a job that vanished (0 holders) or lives
# on two nodes (2 holders).
for id in "${JOB_IDS[@]}"; do
  holders=0
  for base in "$N1" "$N2"; do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs/$id")"
    if [ "$code" != "404" ]; then holders=$((holders + 1)); fi
  done
  if [ "$holders" -ne 1 ]; then
    echo "job $id is registered on $holders survivors, want exactly 1" >&2
    exit 1
  fi
  terminal=""
  for i in $(seq 1 200); do
    for base in "$N1" "$N2"; do
      code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs/$id")"
      if [ "$code" = "404" ]; then continue; fi
      if [ "$code" != "200" ]; then
        terminal="http-$code" # error result, e.g. canceled at deadline
        continue
      fi
      status="$(curl -s "$base/v1/jobs/$id" | grep -o '"status": "[^"]*"' | head -1 | cut -d'"' -f4 || true)"
      case "$status" in
        queued|running|"") ;; # still in flight
        *) terminal="$status" ;;
      esac
    done
    if [ -n "$terminal" ]; then break; fi
    sleep 0.3
  done
  if [ -z "$terminal" ]; then
    echo "adopted job $id never reached a terminal state" >&2
    exit 1
  fi
  echo "  job $id: terminal ($terminal) on exactly one survivor"
done
adopted="$(sum_stat jobs_adopted "$N1" "$N2")"
if [ "$adopted" -lt "${#JOB_IDS[@]}" ]; then
  echo "survivors adopted $adopted jobs, want >= ${#JOB_IDS[@]}" >&2
  exit 1
fi
echo "phase 1 OK: 2 takeovers, epoch $epoch, ${#JOB_IDS[@]} jobs adopted exactly once, mid-churn batch clean"

# Phase 2: stale rejoin. Restart n3 on its old journal — which still
# holds the submit records of jobs the survivors adopted — through the
# epoch join handshake. It must be re-admitted at a bumped epoch, drop
# the superseded replayed jobs (the adopter keeps sole ownership), and
# serve fresh work.
/tmp/confserved -addr "127.0.0.1:${PORTS[2]}" -workers 2 \
  -node-id n3 -advertise "http://127.0.0.1:${PORTS[2]}" -join "$N1,$N2" \
  -heartbeat 200ms -suspect-after 2 -dead-after 4 \
  -journal "$WORKDIR/n3/journal.ndjson" >"$WORKDIR/n3/rejoin.out" 2>&1 &
PIDS[2]=$!
wait_http "$N3/readyz" 200 200 || {
  cat "$WORKDIR/n3/rejoin.out" >&2
  exit 1
}
if ! grep -q "joined cluster" "$WORKDIR/n3/rejoin.out"; then
  echo "rejoined n3 never reported the join handshake:" >&2
  cat "$WORKDIR/n3/rejoin.out" >&2
  exit 1
fi
dropped="$(stat_of "$N3" jobs_dropped_stale)"
if [ "$dropped" -lt 1 ]; then
  echo "rejoined n3 dropped $dropped stale jobs, want >= 1" >&2
  exit 1
fi

# The rejoin view converges: all three live nodes agree on an epoch past
# the two deaths plus the join.
for i in $(seq 1 100); do
  e1="$(stat_of "$N1" epoch)"
  e2="$(stat_of "$N2" epoch)"
  e3="$(stat_of "$N3" epoch)"
  if [ "$e1" -ge 3 ] && [ "$e1" = "$e2" ] && [ "$e1" = "$e3" ]; then break; fi
  sleep 0.2
done
if [ "$e1" -lt 3 ] || [ "$e1" != "$e2" ] || [ "$e1" != "$e3" ]; then
  echo "views did not converge after rejoin: n1=$e1 n2=$e2 n3=$e3" >&2
  exit 1
fi

# The dropped IDs still have exactly one cluster-wide holder (the
# adopter); the rejoined node answers 404 for them.
for id in "${JOB_IDS[@]}"; do
  holders=0
  for base in "$N1" "$N2" "$N3"; do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs/$id")"
    if [ "$code" != "404" ]; then holders=$((holders + 1)); fi
  done
  if [ "$holders" -ne 1 ]; then
    echo "after rejoin, job $id has $holders holders, want exactly 1" >&2
    exit 1
  fi
done

# The rejoined node serves fresh work as a member.
post="$(curl -sf -X POST "$N3/v1/synthesize?example=1&timeout=60s")"
grep -q '"status": "sat"' <<<"$post" || {
  echo "post-rejoin synthesis via n3 not sat:" >&2
  echo "$post" >&2
  exit 1
}

echo "cluster smoke OK: 2 takeovers, mid-churn batch clean, ${#JOB_IDS[@]} jobs adopted exactly once, n3 rejoined at epoch $e3 dropping $dropped stale jobs"
