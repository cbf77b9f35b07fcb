#!/usr/bin/env bash
# Builds jkperf from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash jkperf/run.sh --workload local-lrmi --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, reports, spans and worker sockets all
# stay under .bench_build/jkperf in the repository root.
set -euo pipefail

out=".bench_build/jkperf"
mkdir -p "$out"
bin="$(pwd)/$out/jkperf"
(
	cd "$(dirname "$0")"
	GOCACHE="$(cd ../"$out" && pwd)/gocache" \
	GOPATH="$(cd ../"$out" && pwd)/gopath" \
	XDG_CONFIG_HOME="$(cd ../"$out" && pwd)/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod \
		go build -o "$bin" .
)
exec "$bin" --out "$out" "$@"
