#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, temporary build files, Go
# config) stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
