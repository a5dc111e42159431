#!/usr/bin/env bash
# The benchmark's entry point, run from the repository root:
#
#   bash benchmark/run.sh [flags]     (see benchmark/README.md)
#
# Builds the benchmark (its own module, benchmark/go.mod) and hands it
# the flags; the benchmark then builds cmd/snapserve itself.
set -euo pipefail
cd "$(dirname "$0")/.."
source benchmark/goenv.sh
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
