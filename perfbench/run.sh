#!/usr/bin/env bash
# Builds the simulator CLIs and the perfbench program from the checkout this
# is run in, then runs perfbench with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig13-full --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, sweep
# caches, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local CGO_ENABLED=0 GOFLAGS=

go build -o "$out/bin/" ./cmd/cdfsim ./cmd/cdfsweepd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
"$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
