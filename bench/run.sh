#!/usr/bin/env bash
# Build the benchmark inside the checkout and run it. Everything the Go
# toolchain writes (build cache, temp files, the binary) stays under
# .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# go build is incremental against GOCACHE: an up-to-date binary costs ~0.3 s.
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/spacecdn-bench" .) >&2
cd "$root"
exec "$build/spacecdn-bench" -out bench/out "$@"
