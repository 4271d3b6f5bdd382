#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-hot --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, Go's own config files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
