#!/usr/bin/env bash
# Builds the PolygraphMR benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the binary)
# stays under .bench_build in the working directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
