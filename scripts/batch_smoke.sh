#!/usr/bin/env bash
# Batch durability smoke: boot confserved with a durable journal, submit
# an async /v1/batch of decomp-mode variants slowed by fault injection,
# kill -9 the server while the batch is mid-flight, restart against the
# same journal, wait for /readyz to flip back to 200, and assert that
# every variant's job still exists under its original ID and reached a
# terminal state exactly once — no lost variants, no duplicates.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

ADDR="127.0.0.1:8734"
BASE="http://$ADDR"
WORKDIR="$(mktemp -d)"
JOURNAL="$WORKDIR/journal.ndjson"
VARIANTS=8

go build -o /tmp/confserved ./cmd/confserved

cleanup() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}

# Build the batch body: VARIANTS budget variants of a two-department
# decomposable spec (see internal/service's twinSpec).
python3 - "$VARIANTS" >"$WORKDIR/batch.json" <<'EOF'
import json, sys
n = int(sys.argv[1])
spec = """nodes 6 3
link 1 7
link 2 7
link 3 7
link 4 8
link 5 8
link 6 8
link 7 9
link 8 9
services 1
require 1 2
require 4 5
sliders 2.5 5 %d
"""
variants = [{"name": "v%d" % i, "spec": spec % (100 + 10 * i)} for i in range(n)]
print(json.dumps({"mode": "decomp", "variants": variants}))
EOF

# Phase 1: accept the batch, then die. The injected per-solve delay
# stretches every region solve so the kill provably lands while most
# variants are still queued or mid-DAG.
CONFSYNTH_FAULTS="seed=11,sat.solve.delay=1:150ms" \
  /tmp/confserved -addr "$ADDR" -workers 2 -journal "$JOURNAL" &
SERVER_PID=$!
trap cleanup EXIT

wait_http "$BASE/healthz" 200
wait_http "$BASE/readyz" 200

accepted="$(curl -sf -X POST --data-binary @"$WORKDIR/batch.json" "$BASE/v1/batch?async=1")"
job_ids="$(echo "$accepted" | python3 -c '
import json, sys
jobs = json.load(sys.stdin)["jobs"]
for j in jobs:
    print(j["variant"], j["job_id"])
')"
n_accepted="$(echo "$job_ids" | wc -l | tr -d ' ')"
if [ "$n_accepted" -ne "$VARIANTS" ]; then
  echo "batch accepted $n_accepted of $VARIANTS variants:" >&2
  echo "$accepted" >&2
  exit 1
fi

sleep 0.4
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

if [ ! -s "$JOURNAL" ]; then
  echo "journal is empty after the crash" >&2
  exit 1
fi

# Phase 2: restart fault-free on the same journal and let the replay
# drain (readyz 200 means replayPending hit zero).
/tmp/confserved -addr "$ADDR" -workers 2 -journal "$JOURNAL" &
SERVER_PID=$!

wait_http "$BASE/healthz" 200
wait_http "$BASE/readyz" 200 600

# Every variant's job must exist under its original ID and be terminal.
# GET /v1/jobs/{id} on a terminal job returns its Result (status
# sat/unsat) or the failure mapping; a still-running job returns a
# status snapshot — which, after readyz flipped, would be a bug.
fail=0
while read -r variant id; do
  body="$(curl -s "$BASE/v1/jobs/$id")"
  if ! echo "$body" | python3 -c '
import json, sys
r = json.load(sys.stdin)
status = r.get("status", "")
ok = status in ("sat", "unsat") or "error" in r
sys.exit(0 if ok else 1)
'; then
    echo "variant $variant (job $id) not terminal after replay: $body" >&2
    fail=1
  fi
done <<<"$job_ids"
if [ "$fail" -ne 0 ]; then
  exit 1
fi

# No duplication: the service replayed exactly the accepted batch (plus
# nothing), and the terminal counters cover it.
stats="$(curl -sf "$BASE/statsz")"
echo "$stats" | python3 -c "
import json, sys
st = json.load(sys.stdin)
n = $VARIANTS
problems = []
if st['jobs_replayed'] != n:
    problems.append('jobs_replayed = %d, want %d' % (st['jobs_replayed'], n))
terminal = st['jobs_completed'] + st['jobs_failed'] + st['jobs_canceled']
if terminal < n:
    problems.append('terminal jobs = %d, want >= %d' % (terminal, n))
if st['jobs_active'] != 0 or st['queue_depth'] != 0:
    problems.append('work still pending: active=%d queue=%d' % (st['jobs_active'], st['queue_depth']))
if problems:
    print('\n'.join(problems), file=sys.stderr)
    sys.exit(1)
print('replayed=%d terminal=%d region_cache_misses=%d' % (st['jobs_replayed'], terminal, st['region_cache']['misses']))
"

echo "batch smoke OK: $VARIANTS variant(s) accepted, killed mid-batch, replayed to terminal states with no loss or duplication"
