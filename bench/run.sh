#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare A/*.json -- B/*.json
#
# Arguments that do not start with a subcommand go to `bench run`. The Go
# build cache, module path and tool configuration live under .bench_build/
# so that nothing is read or written outside the checkout, and the toolchain
# never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .

case "${1:-}" in
run | compare) exec "$out/bench" "$@" ;;
*) exec "$out/bench" run "$@" ;;
esac
