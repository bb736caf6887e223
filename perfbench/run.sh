#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#	sh perfbench/run.sh --workload cp-dense --seed 1 --seconds 24 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files all
# live under .bench_build/ in the repository root, so a run writes
# nothing outside it.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
