# Sourced by run.sh and smoke.sh from the repository root: keeps every
# file the Go toolchain and the tests write (build cache, module cache,
# temporary directories, telemetry counters) inside the checkout, under
# .bench_build/, and keeps the toolchain off the network.
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
