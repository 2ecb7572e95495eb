#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload live-1d --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# repository root: the Go build cache, the binary, the results log.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" --root "$root" --out "$out/perfbench-out" "$@"
