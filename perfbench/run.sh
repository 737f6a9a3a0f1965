#!/usr/bin/env bash
# Builds the benchmark and dvsimd from this checkout, then runs one
# benchmark invocation from the checkout root:
#
#   bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), including Go's build
# cache, so a fresh checkout builds from source.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dvsimd" ]]; then
	echo "perfbench: $root does not hold the dvsim sources; run from the checkout root" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
out="$build/perfbench"
mkdir -p "$out/home" "$out/tmp"

# Keep the Go toolchain's caches and settings inside the build directory
# and never let it fetch anything.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOPROXY=off GOTELEMETRY=off
export GOMAXPROCS=$(nproc)

(cd "$here" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/dvsimd" ./cmd/dvsimd)

exec "$out/perfbench" -root "$root" -state "$out" -dvsimd "$out/dvsimd" "$@"
