#!/usr/bin/env bash
# Builds cmd/dsmbench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash cmd/dsmbench/run.sh --workload local-s1 --seed 0 --seconds 20 --trace 0
#   bash cmd/dsmbench/run.sh -quick
#
# The binary, the Go build cache, the go command's own files and every
# temporary file stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry under the user config
# directory.
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$out/dsmbench" .)
exec "$out/dsmbench" -work "$out/dsmbench-work" "$@"
