#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from this checkout's
# source and runs one workload:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the go command writes — build cache, module path, telemetry —
# is pointed inside the checkout, under .bench_build/. The first run in a
# fresh checkout compiles the standard library too (about a minute on two
# cores); later runs find everything cached. The harness itself builds the
# programs under test (gqbed, gqberouter, kgshard) the same way.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" run "$@"
