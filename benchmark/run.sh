#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it; every
# argument goes to the binary (see README.md). Called from the repository
# root as `bash benchmark/run.sh`; the build, the Go build cache and the go
# command's telemetry counters (XDG_CONFIG_HOME) live in .bench_build/
# there, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/cuckoobench" .)
cd "$root"
exec "$build/cuckoobench" "$@"
