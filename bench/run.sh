#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json names it): build loadgen from
# this checkout and run it with the arguments given. loadgen builds sketchd
# itself, the same way it does under `go run`.
#
#   bash bench/run.sh --workload search_sketch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under bench/out/, the Go
# build cache included; the root .gitignore names it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

go build -C "$here" -o "$out/bin/loadgen" ./loadgen

# loadgen finds the tree to build sketchd from in or above the working
# directory, so run this from inside the checkout, as the driver does.
# exec: the harness takes this shell's place, so a signal sent to the
# command reaches the process that owns the daemons.
exec "$out/bin/loadgen" "$@"
