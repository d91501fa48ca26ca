#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload air --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live in .bench_build (or
# $CARGO_TARGET_DIR when set), so the run touches nothing outside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTOOLCHAIN=local GOFLAGS=
# The build needs the repository around the benchmark directory; alone,
# the replace target is missing and the build fails before any result.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
