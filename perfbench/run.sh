#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload <rack-hot|rack-cold-lossy|fabric-paced> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artefact, cache and temporary
# file goes under .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
