#!/usr/bin/env sh
# bench_solver.sh — run the solver microbenchmark suite and compare runs.
#
# Usage:
#   scripts/bench_solver.sh                 run benches, save to bench-<rev>.txt
#   scripts/bench_solver.sh old.txt new.txt compare two saved runs
#
# Environment:
#   BENCHTIME   -benchtime value (default 3x; every iteration asserts the
#               expected probe status, so even 1x is a correctness smoke)
#   BENCHFILTER -bench regexp (default 'Solver|SynthesizerClone|PB|SliderSweep|Decomp|BatchSweep|RoutesCampus';
#               the Decomp pair also runs 500/1000-host sizes when
#               CONFSYNTH_BENCH_LARGE=1)
#   COUNT       -count value (default 1; use >=6 for benchstat significance)
#
# Comparison uses benchstat when it is on PATH and falls back to a plain
# side-by-side diff of the benchmark lines otherwise — nothing is
# downloaded or installed.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 2 ]; then
    old=$1 new=$2
    if command -v benchstat >/dev/null 2>&1; then
        exec benchstat "$old" "$new"
    fi
    echo "benchstat not found; raw ns/op side by side (old | new):"
    grep '^Benchmark' "$old" | awk '{printf "%-28s %15s ns/op\n", $1, $3}' >/tmp/bench_old.$$
    grep '^Benchmark' "$new" | awk '{printf "%-28s %15s ns/op\n", $1, $3}' >/tmp/bench_new.$$
    paste -d'|' /tmp/bench_old.$$ /tmp/bench_new.$$
    rm -f /tmp/bench_old.$$ /tmp/bench_new.$$
    exit 0
fi

benchtime=${BENCHTIME:-3x}
filter=${BENCHFILTER:-'Solver|SynthesizerClone|PB|SliderSweep|Decomp|BatchSweep|RoutesCampus'}
count=${COUNT:-1}
rev=$(git rev-parse --short HEAD 2>/dev/null || echo worktree)
out="bench-${rev}.txt"

echo "running -bench '${filter}' -benchtime ${benchtime} -count ${count} -> ${out}"
go test -run '^$' -bench "${filter}" -benchtime "${benchtime}" -count "${count}" -timeout 30m . | tee "${out}"
echo
echo "saved ${out}; compare against another run with:"
echo "  scripts/bench_solver.sh <old>.txt ${out}"
