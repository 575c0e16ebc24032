#!/usr/bin/env bash
# Builds the nocbt benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash nocbench/run.sh --workload fig12-random --seed 1 --seconds 15 --trace 0
#   bash nocbench/run.sh compare old.jsonl new.jsonl
#
# The binary and the Go build cache live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so a run reads and writes only inside the
# checkout. The benchmark module replaces nocbt with the repository root,
# so outside a full checkout the build fails and no result is printed.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -C nocbench -o "$out/nocbench" .
exec "$out/nocbench" -build-dir "$out" "$@"
