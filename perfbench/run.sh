#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the checkout root. The binary, the Go build
# cache and every file a run writes stay under .bench_build/.
#
#   bash perfbench/run.sh --workload slice-query --seed 1 --seconds 36 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	HOME="$root/.bench_build/home" XDG_CONFIG_HOME="$root/.bench_build/home/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
