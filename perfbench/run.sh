#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload columns --seed 1 --seconds 35 --trace 0
#
# Build products, the Go build cache and the serve workload's data
# directory all stay under $CARGO_TARGET_DIR (default .bench_build), so a
# run writes nothing outside the checkout and never reaches the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: $here/../go.mod not found: run from a full checkout of the repository" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
