#!/usr/bin/env bash
# End-to-end smoke of the synthesis service: boot confserved, synthesize
# the paper example, check the design is Sat, resubmit and check the
# second answer is served from the cache, then confirm /statsz agrees.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"

ADDR="127.0.0.1:8732"
BASE="http://$ADDR"

go build -o /tmp/confserved ./cmd/confserved
/tmp/confserved -addr "$ADDR" -workers 1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

wait_http "$BASE/healthz" 200

first="$(curl -sf -X POST "$BASE/v1/synthesize?example=1")"
grep -q '"status": "sat"' <<<"$first" || {
  echo "first synthesis not sat:" >&2
  echo "$first" >&2
  exit 1
}
grep -q '"cached": false' <<<"$first" || {
  echo "first synthesis unexpectedly cached" >&2
  exit 1
}

second="$(curl -sf -X POST "$BASE/v1/synthesize?example=1")"
grep -q '"cached": true' <<<"$second" || {
  echo "resubmission missed the cache:" >&2
  echo "$second" >&2
  exit 1
}

# A decomposable two-department spec, solved twice in decomp mode: the
# first run cold-misses its regions, the second hits the whole-problem
# cache, and the shared region cache keeps its counters either way.
TWIN_SPEC='nodes 6 3
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
sliders 2.5 5 100'

decomp1="$(curl -sf -X POST --data-binary "$TWIN_SPEC" "$BASE/v1/synthesize?mode=decomp")"
echo "$decomp1" | grep -q '"status": "sat"' || {
  echo "decomp synthesis not sat:" >&2
  echo "$decomp1" >&2
  exit 1
}
echo "$decomp1" | grep -q '"fallback": true' && {
  echo "decomp synthesis unexpectedly fell back to monolithic:" >&2
  echo "$decomp1" >&2
  exit 1
}
curl -sf -X POST --data-binary "$TWIN_SPEC" "$BASE/v1/synthesize?mode=decomp" >/dev/null

stats="$(curl -sf "$BASE/statsz")"
# Assert the labeled counters, not their position in the payload: the
# whole-problem cache (.cache), the decomp region cache (.region_cache),
# and the what-if session registry all carry a "hits" field, so parse
# the JSON structure instead of grepping the first match.
echo "$stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
cache, regions = st["cache"], st["region_cache"]
problems = []
if cache["hits"] < 2:
    problems.append("cache.hits = %d (want >= 2: example resubmit + decomp resubmit)" % cache["hits"])
if regions["misses"] < 1:
    problems.append("region_cache.misses = %d (want >= 1: cold decomp regions)" % regions["misses"])
if regions["entries"] < 1:
    problems.append("region_cache.entries = %d (want >= 1)" % regions["entries"])
if problems:
    print("\n".join(problems), file=sys.stderr)
    sys.exit(1)
print("statsz: cache hits=%d misses=%d, region_cache hits=%d misses=%d entries=%d"
      % (cache["hits"], cache["misses"], regions["hits"], regions["misses"], regions["entries"]))
'

echo "serve smoke OK: sat designs, whole-problem cache hit on resubmit, region counters populated"
