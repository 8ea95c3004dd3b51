#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it.
#   bash benchmarks/run.sh --workload lib_compute --seed 1 --seconds 20 --trace 0
# Everything the build writes (binary, Go build cache, temporaries, the go
# command's own telemetry counters) stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local go build -o "$build/shmt-e2e" ./e2e)
cd "$root"
exec "$build/shmt-e2e" "$@"
