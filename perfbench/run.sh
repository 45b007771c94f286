#!/usr/bin/env bash
# Builds the perfbench driver from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
exec "$out/perfbench" --root "$root" --work "$out" --commit "$commit" "$@"
