#!/usr/bin/env bash
# Builds confbench from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload cold_solve --seed 1 --seconds 12 --trace 0
#
# This is the command BENCHMARK.json names. The binary and the go build
# cache go to .bench_build/ at the root of the checkout, so a run writes
# nothing outside it. Without the rest of the repository (no go.mod, no
# internal/) the build fails and so does this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/confbench ./bench/confbench
exec .bench_build/confbench "$@"
