#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload gateway-sparse --seed 1 --seconds 50 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files, the
# toolchain's own config and telemetry) stays under .bench_build in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
