#!/usr/bin/env bash
# The repository benchmark's one command; bench/README.md explains it.
#
#   bench/run.sh [-seed N] [-quick] [-twice]     the full set, as tables
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run, one JSON result line
#
# Builds the harness and the binaries it drives from source, then runs.
# Everything it writes goes to bench/out/: the Go build cache, temporary
# files and toolchain configuration are pointed there too.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/tmp"
build() {
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off go build "$@"
}
build -o "$out/bin/" ./cmd/scanctl ./cmd/dnssec-scan
(cd bench && build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
