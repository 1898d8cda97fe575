#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#
#   bash e2ebench/run.sh --workload scan --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every store the run creates live
# under .bench_build/ at the checkout root; nothing is fetched (GOPROXY=off)
# and nothing is written elsewhere.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the toolchain's own state (telemetry counters), and
# GOTMPDIR/TMPDIR its scratch files, under .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"
