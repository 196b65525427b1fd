#!/usr/bin/env bash
# Builds replicabench from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash cmd/replicabench/run.sh --workload solve-hot --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache, the go command's telemetry counters
# (kept under XDG_CONFIG_HOME) and the trace files all live under
# .bench_build/ in the current directory, so a run writes nothing
# outside the checkout. The first run compiles the standard library
# into that cache; later runs reuse it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=

(cd cmd/replicabench && go build -buildvcs=false -o "$out/replicabench" .) >&2
exec "$out/replicabench" -trace-dir "$out" "$@"
