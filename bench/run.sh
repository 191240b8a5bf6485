#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the checkout
# root, keeping every build and run artifact under .bench_build/:
#
#   bash bench/run.sh --workload golden-direct --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh --workload all
#   bash bench/run.sh -compare base.jsonl head.jsonl
#
# The driver module (bench/go.mod) replaces sdds with the checkout root, so
# the build fails, and the script exits non-zero, when run outside one.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local

go -C "$root/bench" build -o "$out/sddsbench" .
cd "$root"
exec "$out/sddsbench" -root "$root" "$@"
