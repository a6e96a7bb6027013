#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (build cache
# included, so nothing is written outside the checkout) and runs it with the
# given flags. This is the command BENCHMARK.json names.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/lubench" .)
exec "$out/lubench" "$@"
