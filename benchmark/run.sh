#!/usr/bin/env bash
# Builds the harness from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload netflow-local --seed 1 --seconds 17 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary under .bench_build/, the span
# files and WAL data directories under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/streambench" .)
cd "$root"
exec "$build/streambench" "$@"
