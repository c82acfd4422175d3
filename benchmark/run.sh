#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given flags. Every build artefact, cache and trace file stays under
# .bench_build at the checkout root; the binary runs from the checkout
# root. Outside a full checkout (no ../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	CGO_ENABLED=0
(cd "$root/benchmark" && go build -o "$out/lmmbench" .)
cd "$root"
exec "$out/lmmbench" "$@"
