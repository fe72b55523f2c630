#!/usr/bin/env bash
# Builds the benchmark and the avgserve/avgworker binaries from source, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
#
# Every build product, cache and trace lands under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/avgserve" ]; then
	echo "perfbench: $root is not the avgloc module root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off

go build -o "$build/bin/" ./cmd/avgserve ./cmd/avgworker
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -out "$build/out" "$@"
