#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the toolchain's config directory (telemetry counters)
# and the binary live in .bench_build/ under the checkout, so nothing
# outside it is written and only the toolchain is read.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
