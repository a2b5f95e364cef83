#!/usr/bin/env bash
# Builds pilotbench and pilotserve from this checkout and runs pilotbench
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload suite-detached -seed 1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$build/bin" "$TMPDIR"

# With telemetry on, the go command starts a detached process that
# outlives this script; turn it off in the private config directory
# before any other go command runs.
go telemetry off
go build -o "$build/bin/pilotserve" ./cmd/pilotserve
(cd bench && go build -o "$build/bin/pilotbench" ./pilotbench)
exec "$build/bin/pilotbench" -pilotserve "$build/bin/pilotserve" "$@"
