#!/usr/bin/env bash
# What CI runs for the benchmark, from the repository root:
#
#   bash benchmark/smoke.sh
#
# Builds the benchmark, checks BENCHMARK.json against the contract,
# runs the benchmark's own tests (generator determinism, registry
# coverage, stack parity, a scale-10 pass over all four workloads in
# both modes), and then the same scale-10 pass through the command
# line, checking the result files it leaves for every declared metric.
set -euo pipefail
cd "$(dirname "$0")/.."
source benchmark/goenv.sh

bash benchmark/run.sh -validate
go vet -C benchmark .
go test -C benchmark -count=1 -timeout 10m .

out="benchmark/out/smoke"
small=(-scale 10 -seconds 1 -out "$out")
bash benchmark/run.sh "${small[@]}" -trace 0
bash benchmark/run.sh "${small[@]}" -trace 1
bash benchmark/run.sh -validate "$out/result.json" "$out/result-trace.json"
