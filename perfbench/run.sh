#!/usr/bin/env bash
# Builds uei-serve and the benchmark program from the checkout it is run in,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload explore-long --seed 1 --seconds 30 --trace 0
#
# Every build artifact, Go cache, store and log stays under .bench_build/
# in the checkout. Compile time is not part of any metric.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/uei-serve" ./cmd/uei-serve 1>&2
(cd perfbench && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/uei-serve" -work "$out/work" "$@"
