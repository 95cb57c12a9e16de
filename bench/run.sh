#!/usr/bin/env bash
# The repository benchmark's one command; bench/README.md explains it.
#
#   bench/run.sh [-seed N] [-quick] [-twice]     the full set, as tables
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run, one JSON result line
#
# Builds the harness and the binaries it drives from source, then runs.
# Everything it writes goes to bench/out/: the Go build cache, temporary
# files and toolchain configuration are pointed there too. Nothing it
# starts outlives it, whether it measures, fails to build, or finds no
# program to build (the driver runs it that way once, and it must fail
# fast): see "What a run starts and what it leaves" in bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/tmp"
toolchain() {
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off go "$@"
}
# A fresh configuration directory holds no telemetry state, so the first
# other go command there would start the toolchain's detached telemetry
# process, which outlives this script by a second or two, even when the
# build fails. This writes only bench/out/config/go/telemetry/mode. A
# toolchain without the subcommand has no such process either.
toolchain telemetry off 2>/dev/null || true
toolchain build -o "$out/bin/" ./cmd/scanctl ./cmd/dnssec-scan
(cd bench && toolchain build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
