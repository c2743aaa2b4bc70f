#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the arguments
# given. Everything the build and the run write — Go's build and module
# caches, the binary, trace files — stays under .bench_build/ in the
# checkout the script is started from.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME moves the go command's own files (env file, telemetry
# counters) under the checkout as well.
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/elasticperf" .)
exec "$build/elasticperf" -trace-dir "$build/trace" "$@"
