#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation plus the
# ablations. Outputs: console tables + results/*.json (+ results/logs/).
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p results/logs
BINS="fig01_psd fig02_constellation fig03_ber fig04_per fig05_sigma \
      table1_transitions fig06_throughput fig08_channels fig09_durations \
      fig10_topologies fig11_interference table3_random fig13_mobility \
      fig14_approx ablations ext_sinr_susceptibility ext_bianchi"
for b in $BINS; do
    echo "== $b =="
    cargo run --release -q -p acorn-bench --bin "$b" | tee "results/logs/$b.txt"
done

# Then the tier-1 gate (fmt, build, tests, thread-count determinism). Its
# figure gate re-runs every binary above and requires the JSON just
# written, byte for byte, so it runs after the regeneration: before it,
# any change that moves a figure would fail against the old record.
scripts/ci.sh
echo "All experiments regenerated. See EXPERIMENTS.md for the paper-vs-measured record."
