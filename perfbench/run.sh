#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload gene_lists --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, data directories, span files) stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
cd "$root"
exec "$build/perfbench-bin" "$@"
