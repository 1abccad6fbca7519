#!/usr/bin/env bash
# Builds the standing benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash clrbench/run.sh --workload mcf --seed 1 --seconds 25 --trace 0
#
# Everything it writes (the Go build cache, the binary, the span files) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go command keeps its build cache, module path, environment file,
# telemetry and temporary build files under these; pointing them into
# .bench_build keeps the run's writes inside the checkout and the user's
# `go env -w` settings out of it.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/clrbench" && go build -o "$out/clrbench" .)
exec "$out/clrbench" -spans-dir "$out" "$@"
