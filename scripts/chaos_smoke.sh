#!/usr/bin/env bash
# Chaos smoke of the fault-tolerant service: boot confserved with a
# durable journal and seeded fault injection (solver panics + journal
# write errors), drive load through lib.sh's load while faults fire,
# confirm the daemon survives and /statsz counts recovered panics, then
# kill -9 mid-load, restart fault-free against the same journal, and
# verify the replay completes — /readyz flips back to 200 and every
# journaled job reaches a terminal state.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

ADDR="127.0.0.1:8733"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
JOURNAL="$WORKDIR/journal.ndjson"

go build -o /tmp/confserved ./cmd/confserved

cleanup() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}

# Phase 1: serve under injected faults. The panic rate is well above the
# issue's 10% floor; the journal-error rate exercises the WAL self-repair
# and the ErrJournal -> 503 -> client-retry path; the per-solve delay
# stretches jobs so the phase-2 kill -9 provably lands mid-work.
CONFSYNTH_FAULTS="seed=7,sat.solve.panic=0.15,wal.append.err=0.02,sat.solve.delay=1:40ms" \
  /tmp/confserved -addr "$ADDR" -workers 2 -journal "$JOURNAL" &
SERVER_PID=$!
trap cleanup EXIT

wait_http "$BASE/healthz" 200
wait_http "$BASE/readyz" 200

# Failures are tolerated: a panicked job fails (contained, terminal) and
# its retries may panic too — the point is that the daemon survives
# them, not that every request succeeds.
errors="$(load 4 60 8 solve "$BASE" 2>/dev/null)"
echo "phase 1: 60 requests under injected faults, $errors failed"

if ! kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "confserved exited under injected solver panics" >&2
  exit 1
fi

panics="$(stat_of "$BASE" panics_recovered)"
if [ "$panics" -lt 1 ]; then
  echo "no recovered panics in /statsz after the chaos load:" >&2
  curl -s "$BASE/statsz" >&2
  exit 1
fi

# Phase 2: kill -9 mid-load. The second run uses max-isolation — a
# different cache key and a much slower query than phase 1's solves —
# so jobs are accepted (journaled) but still queued or mid-descent when
# the process dies.
load 4 60 8 max-isolation "$BASE" >/dev/null 2>&1 &
LOAD_PID=$!
sleep 0.3
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true

if [ ! -s "$JOURNAL" ]; then
  echo "journal is empty after the crash" >&2
  exit 1
fi

# Phase 3: restart fault-free on the same journal; the replay must
# complete (readyz 200 means replayPending drained) and the replayed
# jobs must show up as terminal work in /statsz.
/tmp/confserved -addr "$ADDR" -workers 2 -journal "$JOURNAL" &
SERVER_PID=$!

wait_http "$BASE/healthz" 200
wait_http "$BASE/readyz" 200 300

replayed="$(stat_of "$BASE" jobs_replayed)"
completed="$(stat_of "$BASE" jobs_completed)"
failed="$(stat_of "$BASE" jobs_failed)"
active="$(stat_of "$BASE" jobs_active)"
queued="$(stat_of "$BASE" queue_depth)"

if [ "$replayed" -lt 1 ]; then
  echo "kill -9 mid-load stranded no jobs for replay:" >&2
  curl -s "$BASE/statsz" >&2
  exit 1
fi
# Ready + empty queue + nothing active means every replayed job reached
# a terminal state.
if [ "$active" -ne 0 ] || [ "$queued" -ne 0 ]; then
  echo "replayed jobs still pending after readyz flipped to 200:" >&2
  curl -s "$BASE/statsz" >&2
  exit 1
fi
if [ "$((completed + failed))" -lt "$replayed" ]; then
  echo "replayed jobs did not all reach terminal states:" >&2
  curl -s "$BASE/statsz" >&2
  exit 1
fi

# The restarted daemon still answers fresh work.
post="$(curl -sf -X POST "$BASE/v1/synthesize?example=1")"
grep -q '"status": "sat"' <<<"$post" || {
  echo "post-restart synthesis not sat:" >&2
  echo "$post" >&2
  exit 1
}

echo "chaos smoke OK: $panics panic(s) contained, $replayed job(s) replayed after kill -9, readyz recovered"
