#!/usr/bin/env bash
# Benchmark path: runs the criterion suites in crates/bench/benches/ and
# regenerates the committed machine-readable simulator baseline
# (BENCH_simulator.json at the repo root). Run from the repo root.
#
# The simulator suite includes the `fabric_churn` group (incremental vs
# full-rescan water-filling under flow churn at 64 / 1024 / 8192 flows) and
# the three-point `driver_exec_mode` group (paper-testbed, 512-rank /
# 64-server and 4096-rank / 256-server scales, events/sec);
# bench_baseline emits the same measurements into BENCH_simulator.json
# (schema v8, including the multi-tenant scenario suite of
# crates/dosas/src/scenarios.rs and the fat-tree fill-scaling points of
# DESIGN.md §15 — the 10k-host topology point holds 108k flows in
# flight).
#
#   scripts/bench.sh            # everything (criterion suites are slow)
#   scripts/bench.sh baseline   # just refresh BENCH_simulator.json
#   scripts/bench.sh criterion  # just the criterion suites
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

if [[ "$mode" == "all" || "$mode" == "criterion" ]]; then
  for suite in scheduler kernels simulator endtoend; do
    cargo bench -p bench --bench "$suite"
  done
fi

if [[ "$mode" == "all" || "$mode" == "baseline" ]]; then
  cargo run --release -p bench --bin bench_baseline
fi

echo "bench: OK"
