#!/usr/bin/env bash
# Builds the host-cost benchmark from the sources of the checkout it is
# started in, then runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload sqlite --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the binary, CPU profiles and span dumps. No network is used.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's configuration and telemetry
# counters inside the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly \
	PPROF_TMPDIR="$build/pprof" XDG_CONFIG_HOME="$build/config"
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" -root "$root" -out "$build/out" "$@"
