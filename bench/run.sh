#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# repository root, for example:
#
#   bash bench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory, so compile time is never part of
# a measurement and nothing is written outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/ocorbench" .)
exec "$out/ocorbench" "$@"
