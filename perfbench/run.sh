#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload boot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the home directory the go command
# keeps its settings and telemetry under all live in .bench_build in the
# checkout, and the toolchain is held to the local one with module
# downloads off, so the build reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
