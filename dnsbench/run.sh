#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash dnsbench/run.sh --workload zipf-hit --seed 1 --seconds 10 --trace 0
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export GOPATH="$out/gopath"
src="$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
  | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
(cd "$root/dnsbench" && go build -trimpath -ldflags "-X main.sourceHash=$src" -o "$out/dnsbench" .) >&2
exec "$out/dnsbench" -out "$out" "$@"
