#!/usr/bin/env bash
# Builds the thermemu benchmark from the checkout it runs in and executes it:
#
#	bash thermbench/run.sh --workload kernel-compute --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the traced runs' span files stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout; the build
# never touches the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOENV=off GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/thermbench" && go build -o "$build/thermbench" .)
exec "$build/thermbench" -out "$build/trace" "$@"
