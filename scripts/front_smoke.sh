#!/usr/bin/env bash
# front_smoke.sh — instruction-supply subsystem smoke (DESIGN.md §13).
#
# Runs one frontend-bound kernel through the real cdfsim binary in two
# configurations and checks the subsystem's load-bearing ordering:
#
#   timing   (default)             — the timed L1I fetch path
#   fdip     (-fdip -shadow-btb)   — prefetcher + shadow BTB
#
# Pass conditions: FDIP recovers a solid fraction of the I-miss cost, and
# the frontend statistics (L1I MPKI, fetch-stall split) are actually
# reported. Any break — the timed L1I silently not engaging, the
# prefetcher regressing, stats plumbing lost — fails loudly. The timed
# path's exact statistics are pinned separately by TestFetchPathGolden.
#
# Usage: scripts/front_smoke.sh [workdir]   (default: a fresh mktemp dir)
set -euo pipefail

cd "$(dirname "$0")/.."

work="${1:-$(mktemp -d /tmp/cdf-front.XXXXXX)}"
mkdir -p "$work"
bin="$work/cdfsim"
bench=server
uops=300k
seed=1

echo "front-smoke: workdir $work"
go build -o "$bin" ./cmd/cdfsim

"$bin" -bench "$bench" -uops "$uops" -seed "$seed" >"$work/timing.txt"
"$bin" -bench "$bench" -uops "$uops" -seed "$seed" -fdip -shadow-btb >"$work/fdip.txt"

ipc() { awk '$1 == "ipc" {print $2; exit}' "$1"; }
timing_ipc=$(ipc "$work/timing.txt")
fdip_ipc=$(ipc "$work/fdip.txt")
if [ -z "$timing_ipc" ] || [ -z "$fdip_ipc" ]; then
    echo "front-smoke: FAIL: missing ipc line (timing='$timing_ipc' fdip='$fdip_ipc')" >&2
    exit 1
fi

# Frontend stats must be reported with real values on the timing run.
mpki=$(awk '$1 == "l1i_mpki" {print $2; exit}' "$work/timing.txt")
stall=$(awk '$1 == "fetch_stall_imiss" {print $2; exit}' "$work/timing.txt")
if [ -z "$mpki" ] || [ -z "$stall" ]; then
    echo "front-smoke: FAIL: frontend statistics missing from the timing run" >&2
    exit 1
fi

awk -v timing="$timing_ipc" -v fdip="$fdip_ipc" \
    -v mpki="$mpki" -v stall="$stall" 'BEGIN {
    printf "front-smoke: ipc timing %s, fdip %s (l1i mpki %s)\n", timing, fdip, mpki
    # FDIP must claw back at least 25% over bare timing on this I-bound kernel.
    if (fdip < 1.25 * timing) { print "front-smoke: FAIL: FDIP recovery too small"; exit 1 }
    # And the frontend must actually be missing and stalling.
    if (mpki + 0 <= 1) { print "front-smoke: FAIL: l1i_mpki implausibly low"; exit 1 }
    if (stall + 0 <= 0) { print "front-smoke: FAIL: no fetch_stall_imiss cycles"; exit 1 }
}' || exit 1

echo "front-smoke: PASS"
