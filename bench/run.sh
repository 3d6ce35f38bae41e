#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark inside the
# checkout and runs it with the arguments given. Go's build cache, temp
# files, module path and telemetry directory are all pointed into
# .bench_build/, so nothing is written outside the checkout. The build is a
# no-op when the sources have not changed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C bench -o "$build/leap-e2e" . >&2
exec "$build/leap-e2e" "$@"
