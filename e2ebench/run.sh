#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sk6144-single --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the cache journals of the trio workloads.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The benchmark module imports the repository's packages through
# `replace otisnet => ../`; the build fails when they are absent.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" "$@"
