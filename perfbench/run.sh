#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload copy --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, spans and profiles
# all live under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # go's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
