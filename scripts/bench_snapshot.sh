#!/usr/bin/env bash
# Performance snapshot of the evaluation engine:
#   1. criterion microbenches for allocation and baseband, and
#   2. the end-to-end snapshot binary, which times the 25-AP
#      allocate-with-restarts path (BENCH_allocation.json) and the
#      baseband Monte-Carlo engine (BENCH_baseband.json), both at the
#      repo root.
#
# Usage: scripts/bench_snapshot.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== criterion: bench_allocation =="
cargo bench --offline -p acorn-bench --bench bench_allocation

echo
echo "== criterion: bench_baseband =="
cargo bench --offline -p acorn-bench --bench bench_baseband

echo
echo "== end-to-end: baseband engine + 25-AP allocate with restarts =="
cargo run --offline --release -p acorn-bench --bin bench_snapshot

echo
echo "== event runtime: kernel micro + composite 25/400-AP scaling =="
cargo run --offline --release -p acorn-bench --bin bench_events

echo
echo "== dynamic channel bonding: approximation gap + CTMC cross-check =="
cargo run --offline --release -p acorn-bench --bin bench_dcb

echo
echo "snapshots written to BENCH_baseband.json, BENCH_allocation.json, BENCH_events.json and BENCH_dcb.json"
