# Helpers shared by the smoke scripts in this directory. Source it:
#
#	source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"
#
# wait_http polls an endpoint, stat_of and sum_stat read /statsz
# counters, pool_spec renders the fixed-seed problem pool, and load
# drives concurrent curl clients over that pool against one or more
# confserved endpoints.

wait_http() { # url, want_status, tries
  local url="$1" want="$2" tries="${3:-100}" code i
  for ((i = 0; i < tries; i++)); do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$url" 2>/dev/null || true)"
    if [ "$code" = "$want" ]; then
      return 0
    fi
    sleep 0.1
  done
  echo "$url never returned $want (last: ${code:-none})" >&2
  return 1
}

stat_of() { # base, json_key -> the first such counter in /statsz (0 when absent)
  local v
  v="$(curl -sf "$1/statsz" | grep -o "\"$2\": [0-9]*" | head -1 | grep -o '[0-9]*$' || true)"
  echo "${v:-0}"
}

sum_stat() { # json_key, base... -> sum over the bases
  local key="$1" total=0 base
  shift
  for base in "$@"; do
    total=$((total + $(stat_of "$base" "$key")))
  done
  echo "$total"
}

# pool_spec i prints the i-th problem of the load pool: a two-tier
# network of 4 to 6 hosts on two routers whose demands and sliders vary
# with i. The shapes repeat every 12 problems and the cost budget grows
# by one per cycle, so every i has its own fingerprint; problem i is the
# same text on every run, so a repeat of i is a cache hit.
pool_spec() {
  local i="$1" hosts=$((4 + $1 % 3)) h
  printf 'devices 3\norder 1 2 2\norder 2 3 2\ncosts 5 8 6\n'
  printf 'nodes %d 2\n' "$hosts"
  for ((h = 1; h <= hosts; h++)); do
    printf 'link %d %d\n' "$h" $((hosts + 1 + h % 2))
  done
  printf 'link %d %d\n' $((hosts + 1)) $((hosts + 2))
  printf 'services 1\nrequire 1 %d\n' $((2 + i % (hosts - 1)))
  if [ "$hosts" -gt 4 ]; then
    printf 'require 2 %d\n' "$hosts"
  fi
  printf 'sliders %d.5 %d %d\n' $((1 + i % 3)) $((3 + i % 4)) $((40 + i / 12))
}

# load CLIENTS REQUESTS PROBLEMS MODE TARGET... posts REQUESTS synthesis
# requests from CLIENTS concurrent clients, request r carrying
# pool_spec (r % PROBLEMS) in query mode MODE, and prints how many
# failed; each failure is described on stderr. Client c sends requests
# c, c+CLIENTS, ... and starts each at target c (modulo the number of
# targets), like a client pinned behind a load balancer; the targets
# after it are its failover order. Each attempt asks the server for a
# 2 min deadline and gives up on it after 150 s. Per attempt:
#   - a transport error or a 5xx moves the request to the next target;
#   - a 429 or 503 backs off on the same target;
#   - a 200 whose body is not "status": "sat" is a failure;
#   - anything else is a failure.
# Every retry sleeps backoff_ms: a full jitter over a window that doubles
# from 50 ms to a 2 s cap, on top of the response's Retry-After seconds
# (retry_after). A request gives up after 8 attempts.
load() {
  local clients="$1" requests="$2" problems="$3" mode="$4" dir c total=0
  local -a pids=()
  shift 4
  dir="$(mktemp -d)"
  for ((c = 0; c < clients; c++)); do
    load_client "$c" "$clients" "$requests" "$problems" "$mode" "$dir" "$@" >"$dir/errors.$c" &
    pids+=($!)
  done
  wait "${pids[@]}"
  for ((c = 0; c < clients; c++)); do
    total=$((total + $(cat "$dir/errors.$c")))
  done
  rm -rf "$dir"
  echo "$total"
}

# load_client is one client of load; it prints its failure count.
load_client() { # c, clients, requests, problems, mode, dir, target...
  local c="$1" clients="$2" requests="$3" problems="$4" mode="$5" dir="$6"
  shift 6
  local -a targets=("$@")
  local body="$dir/body.$c" hdrs="$dir/hdrs.$c" errors=0 r attempt t url code after window ms
  RANDOM=$((c + 1)) # jitter differs across clients but repeats run to run
  for ((r = c; r < requests; r += clients)); do
    t=$c
    for ((attempt = 0; ; attempt++)); do
      url="${targets[t % ${#targets[@]}]}/v1/synthesize?mode=$mode&timeout=2m"
      code="$(pool_spec $((r % problems)) | curl -s --max-time 150 -o "$body" -D "$hdrs" \
        -w '%{http_code}' -H 'Content-Type: text/plain' --data-binary @- "$url")" || code=000
      after=0
      case "$code" in
        200)
          if ! grep -q '"status": "sat"' "$body"; then
            echo "request $r: $url answered: $(head -c 200 "$body")" >&2
            errors=$((errors + 1))
          fi
          break
          ;;
        429 | 503)
          after="$(retry_after "$hdrs")"
          ;;
        000 | 5??)
          t=$((t + 1))
          ;;
        *)
          echo "request $r: $url answered $code: $(head -c 200 "$body")" >&2
          errors=$((errors + 1))
          break
          ;;
      esac
      if [ $((attempt + 1)) -ge 8 ]; then
        echo "request $r: gave up after 8 attempts, the last at $url ($code)" >&2
        errors=$((errors + 1))
        break
      fi
      ms="$(backoff_ms "$attempt" "$after" "$RANDOM")"
      sleep "$((ms / 1000)).$(printf '%03d' $((ms % 1000)))"
    done
  done
  echo "$errors"
}

# retry_after prints the whole seconds of the Retry-After header in a
# curl -D header dump, or 0 when it is absent or not a plain number.
retry_after() { # hdrs_file
  local v
  v="$(tr -d '\r' <"$1" | sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9][0-9]*\) *$/\1/p' | head -1)"
  echo "${v:-0}"
}

# backoff_ms prints the delay in ms before retry ATTEMPT+1: a full
# jitter, drawn from RAND, over a window that doubles from 50 ms to a
# 2 s cap, on top of AFTER seconds of Retry-After. RAND is passed in
# rather than read here, because a command substitution reseeds $RANDOM.
backoff_ms() { # attempt, after_s, rand
  local window=$((50 << $1))
  echo $((10#$2 * 1000 + $3 % (window < 2000 ? window : 2000)))
}
