#!/usr/bin/env bash
# Entry point of the repository benchmark (BENCHMARK.json's command): builds
# the harness and cmd/loadgen from source into .bench_build/ at the root of
# the checkout, then runs the harness from there with the arguments given.
# Everything the Go toolchain writes (build cache, temp files, telemetry) is
# pointed inside .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

# Builds happen here, before the harness's clock starts. The harness is its
# own module (bench/go.mod) that replaces "distcount" with the checkout, so
# both binaries come from the source tree next to this script.
(cd "$root/bench" && go build -o "$build/bench" . && go build -o "$build/loadgen" distcount/cmd/loadgen)

cd "$root"
exec "$build/bench" "$@"
