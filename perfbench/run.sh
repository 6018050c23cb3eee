#!/usr/bin/env bash
# Builds the benchmark and chassis-serve from this checkout's sources, then
# runs one workload:
#
#   bash perfbench/run.sh --workload fit-inmem --seed 7 --seconds 10 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in
# the checkout. The build needs no network: the benchmark module depends
# only on the repository's own module through a local replace.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off
build() {
	go build "$@" -o "$out/bin/perfbench" . &&
		go build "$@" -o "$out/bin/chassis-serve" chassis/cmd/chassis-serve
}
(
	cd "$root/perfbench"
	# Stamping the commit needs a usable version-control checkout; build
	# without it where there is none.
	build 2>/dev/null || build -buildvcs=false
) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --workdir "$out/work" "$@"
