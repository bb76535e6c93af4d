#!/usr/bin/env bash
# Builds the benchmark from the source around it and runs it with the
# given arguments, from the root of a checkout:
#
#	bash benchmark/run.sh --workload sim_voting_n5 --seed 1 --seconds 12 --trace 0
#
# Everything this writes goes under .bench_build in the current
# directory: Go's build cache, the binary, the workloads' store files and
# the traced pass's span files. Nothing is downloaded.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build/tmp" "$build/home"

# The go command must find its cache, module path, scratch space and
# settings inside the checkout, whatever the caller's environment has.
HOME=$build/home XDG_CONFIG_HOME=$build/home/.config \
GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/tmp \
GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 \
	go build -C "$src" -o "$build/relibench" .

TMPDIR=$build/tmp exec "$build/relibench" -dir "$build" "$@"
