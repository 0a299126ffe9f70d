#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds bench/cmd/lumenperf from
# source and replaces this shell with it, so a run is one foreground
# process. Everything the build and the run write — Go's build cache and
# temp files, the toolchain's config, captures, traces — stays under
# bench/out in this checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp" "$out/config/go/telemetry"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off
# The go command's telemetry can start a detached uploader child; with the
# mode file saying off, under a config dir of our own, it never does.
export XDG_CONFIG_HOME="$out/config"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$here/.." && go build -o "$out/lumenperf" ./bench/cmd/lumenperf)
exec "$out/lumenperf" -dir "$out" "$@"
