#!/usr/bin/env bash
# Builds the node benchmark from the source tree it sits in and runs it.
#
#   bash nodebench/run.sh --workload put-durable --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact (the binary, the Go
# build cache) and every trace file stays under $CARGO_TARGET_DIR, default
# .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=
(cd "$root/nodebench" && go build -o "$out/nodebench" .)
exec "$out/nodebench" -out "$out" "$@"
