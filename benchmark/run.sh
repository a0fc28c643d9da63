#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it; every flag goes to
# the harness (see README.md). Build cache, temporary files, binary and
# outputs all stay inside the checkout, under .bench_build/ and
# benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/graphh-benchmark" .)
exec "$build/graphh-benchmark" -out "$here/out" "$@"
