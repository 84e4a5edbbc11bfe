#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. bench/
# is a module of its own, so it is built from its directory; everything the
# toolchain writes (build cache, telemetry counters, the binary) is pointed
# under .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export HOME="$build" XDG_CONFIG_HOME="$build/config" # telemetry goes to the user config dir
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local                             # never download a toolchain

# go build is a no-op when the cached binary is current.
(cd "$root/bench" && go build -o "$build/mimir-perfbench" .)

cd "$root"
exec "$build/mimir-perfbench" "$@"
