#!/usr/bin/env bash
# Builds the CoReDA benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload serve|churn|replicate --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, checkpoint directories, trace files —
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no CoReDA module here)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
