#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the arguments given. BENCHMARK.json names this
# script as the benchmark's command; run it from the repository root.
#
#   bash bench/run.sh --workload lib-hot --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -seed 2008 -out bench/out/results.json
#
# The Go build cache, the toolchain's temporary directory and its own
# counter files are kept inside .bench_build/ too, so that a run writes
# nothing outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS="-buildvcs=false"
export XDG_CONFIG_HOME="$build/config"

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -ldflags "-X main.commit=$commit" -o "$build/xpvbench" .

cd "$root"
exec "$build/xpvbench" "$@"
