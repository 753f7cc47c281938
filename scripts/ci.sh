#!/usr/bin/env bash
# The tier-1 gate, runnable locally and from any CI runner:
#   1. formatting (cargo fmt --check, whole workspace),
#   2. panic-path budget: `unwrap()` / `expect(` / `panic!(` in ANY
#      crate's non-test code must equal the audited baselines (one for
#      library crates, one for the bench/figure binaries — fallible
#      library paths return typed errors instead); a count below its
#      baseline fails too, so removed panics lower the baseline,
#   3. warnings-clean check build of the whole workspace, a
#      warning-free rustdoc build (`cargo doc --workspace --no-deps`),
#      and clippy over every target, failing on deny-level lints (its
#      style warnings are reported, not gated),
#   4. release build,
#   5. the root test suite (tier-1: reproduction guards, properties,
#      determinism, resilience, event-runtime goldens, and the wire-bytes
#      goldens of every beacon, IAPP announcement and control-plane
#      envelope frame in tests/wire_golden.rs). The properties include
#      the exact world's twin (exact_world_twins_the_controller: its
#      maintained cells, graph and adverts against the controller's
#      from-scratch API, bit for bit), and in both worlds every arrival
#      and re-scan joins the AP, with the delay bits, that choose_ap
#      picks over the eagerly searched candidates (the bounded chooser
#      searches an empty cell only when it could win); the goldens
#      include an associated walker with and without faults
#      (associated_walker_is_pinned); the resilience suite shows that
#      measurement faults alone leave the city world where its benign
#      twin ends (measurement_faults_alone_leave_the_city_world_untouched),
#      and the crate unit tests catch a cached link SNR one ulp off
#      (a_stale_link_snr_is_caught_in_both_worlds) and pin zoned_city at
#      the city pitch to city_grid
#      (zoned_city_at_the_city_pitch_is_the_city_grid_without_shadowing),
#   5b. the distributed golden-twin gate: the zone-controller plane's
#      benign-path allocation must equal the centralized controller's
#      exactly, and partitions must degrade per-zone only,
#   5c. the chaos-soak smoke gate: short-horizon soak with internal
#      ACORN_THREADS = 1/2/8 sweep (bit-identical logs + sketch
#      fingerprints) under every watchdog invariant (the advert twin,
#      invariant 6, included), sabotage negative test, bounded-telemetry
#      growth, plane chaos heal, and the sketch property suite,
#   6. the observability overhead gate: the baseband packet path must
#      stay zero-allocation with a NullSink attached (measured under the
#      counting allocator), and instrumented runs must be bit-identical
#      to plain ones,
#   6b. the kernel-equivalence gate, in release: the §4.2 estimator
#      kernel and the lane-shaped baseband kernels must match their
#      retained oracles bit for bit,
#   7. the determinism + golden suites re-run under ACORN_THREADS = 1, 2
#      and 8 — the engine's thread-count cap must never move an output
#      bit, including the hard-coded pre-port fingerprints. The
#      determinism sweep runs with a RecordingSink attached and asserts
#      byte-stable snapshot JSON; the resilience suite records through
#      the events-layer sinks (faults.*, csa.*, iapp.* counters),
#   8. the repository benchmark (perfbench/) built against this checkout
#      and run for one second per workload at its default seed: it must
#      build, and its recorded output fingerprints must still match.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check =="
cargo fmt --all -- --check

echo
echo "== panic-path budget (all crates, non-test) =="
# Two audited baselines. Library crates (22): provably-unreachable
# expects (core/par.rs), frame-layout invariants (baseband/frame.rs),
# static histogram bounds (each registered once, in events/world.rs and
# the shared fault core in events/faults.rs), and lock-poisoning
# fallbacks — everything reachable from user input
# returns a typed error (the soak crate adds zero: all fallible
# registrations go through `if let Ok`; the control-plane envelope
# codec adds zero: it reads and checks frames through core/wire.rs's
# bounds-checked Reader and FCS check). Bench/figure binaries (19) may
# unwrap on their own outputs. Test modules sit at the bottom of each
# file behind #[cfg(test)], so counting stops at that marker. Both
# baselines are ratchets: a count above its baseline fails, and so does
# one below it, until the baseline is lowered to match.
LIB_PANIC_BASELINE=22
BIN_PANIC_BASELINE=19
count_panics() { # $1: newline-separated file list
    local total=0 f hits
    while IFS= read -r f; do
        [ -f "$f" ] || continue
        hits=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
            | grep -cE '\.unwrap\(\)|\.expect\(|panic!\(' || true)
        if [ "$hits" -gt 0 ]; then
            echo "  $f: $hits" >&2
            total=$((total + hits))
        fi
    done <<< "$1"
    echo "$total"
}
lib_count=$(count_panics "$(find crates -path 'crates/bench' -prune -o \
    -path '*/src/*' -name '*.rs' -print | sort)")
bin_count=$(count_panics "$(find crates/bench/src -name '*.rs' | sort)")
echo "  lib total: $lib_count (baseline $LIB_PANIC_BASELINE)"
echo "  bench-bin total: $bin_count (baseline $BIN_PANIC_BASELINE)"
if [ "$lib_count" -gt "$LIB_PANIC_BASELINE" ] \
    || [ "$bin_count" -gt "$BIN_PANIC_BASELINE" ]; then
    echo "panic-path budget exceeded" >&2
    echo "(convert the new unwrap/expect/panic to a typed error, or" >&2
    echo " re-audit and bump the baseline in scripts/ci.sh)" >&2
    exit 1
fi
if [ "$lib_count" -lt "$LIB_PANIC_BASELINE" ]; then
    echo "panic-path budget: lower the baseline to $lib_count (LIB_PANIC_BASELINE)" >&2
    exit 1
fi
if [ "$bin_count" -lt "$BIN_PANIC_BASELINE" ]; then
    echo "panic-path budget: lower the baseline to $bin_count (BIN_PANIC_BASELINE)" >&2
    exit 1
fi

echo
echo "== warnings-clean check =="
RUSTFLAGS="-D warnings" cargo check --offline --workspace --all-targets

echo
echo "== warning-free docs =="
# CONTRIBUTING.md's rule: every intra-doc link resolves, and public docs
# link no private item.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo
echo "== clippy (deny-level lints) =="
# Deny-by-default lints (correctness: tautologies, impossible
# comparisons, …) are errors, so clippy exits non-zero on any of them.
cargo clippy --offline --workspace --all-targets

echo
echo "== release build =="
cargo build --release --offline

echo
echo "== tests (workspace) =="
cargo test -q --offline --workspace

echo
echo "== observability overhead gate (NullSink) =="
# The disabled-observability contract, measured rather than assumed:
# 0 allocs/packet on the warm baseband path (uncoded, coded Viterbi at
# 20 and 40 MHz, STBC, preamble sync), per packet and per batch, and
# plain == instrumented bit patterns.
cargo test -q --offline --release -p acorn-bench --test obs_overhead

echo
echo "== goodput-table accuracy gate =="
# The memoized SNR->PER->goodput table must stay within its documented
# error budget (GoodputTable::GOODPUT_TOLERANCE_BPS) over the full
# MCS x width x SNR sweep, and must not change any golden-topology
# coloring. The companion spatial_graph properties pin the grid-built
# interference graph to the brute-force oracle, edge for edge.
cargo test -q --offline --release --test table_accuracy --test spatial_graph

echo
echo "== kernel-equivalence gate (release) =="
# The exact estimator kernel (ln n! table, one union bound per MCS, the
# descending-rate scan with its rate-bound pruning and lowest-index tie
# rule, one channel crossover per modulation and MIMO mode, the union
# bound's exit once its running sum reaches the 0.5 clamp) must equal the
# retained term-by-term union bound and an unpruned ascending 16-MCS scan
# over the full 1/64 dB SNR grid, and the controller's one-width queries
# the two-width estimate, bit for bit; no searched delay may fall below
# the delay floor Algorithm 1 ranks empty cells by. Algorithm 2's colour
# scan over per-channel neighbour sets must pick the colour and the gain
# bits of the per-colour delta_bps fold on seeded random graphs at every
# plan size, degree above 64 and channel indices above 64 included.
# The lane-shaped Viterbi and batched FFT kernels must equal their
# scalar oracles. Release builds walk the full grids.
cargo test -q --offline --release -p acorn-phy --test kernel_equivalence
cargo test -q --offline --release -p acorn-core --test kernel_equivalence
cargo test -q --offline --release -p acorn-baseband --test kernel_equivalence

echo
echo "== dynamic-channel-bonding gate =="
# The DCB event simulator must land within the documented tolerance of
# the exactly solved Faridi-style CTMC on every cross-check topology x
# Markovian policy, and the branch-and-bound optimum must terminate on
# the enumerable gap topologies without the greedy ever beating it
# (tests/dcb.rs documents both bounds; bench_dcb snapshots the same
# numbers to BENCH_dcb.json).
cargo test -q --offline --release --test dcb

echo
echo "== distributed golden-twin gate =="
# The distributed control plane must land on EXACTLY the centralized
# controller's allocation on the benign path (assignments, widths and
# associations, bit for bit) on three seeded multi-zone topologies, and
# a partition must degrade only the isolated zone (per-zone safe mode,
# post-heal reconvergence to the twin).
cargo test -q --offline --release --test distributed_twin

echo
echo "== chaos-soak smoke gate =="
# Short-horizon soak over a 16-AP city grid: the chaos sweep test runs
# the full faulty soak at ACORN_THREADS = 1/2/8 internally and asserts
# bit-identical event logs, telemetry snapshot bytes (which cover every
# sketch fingerprint), and final state; sabotage must trip the watchdog
# with replayable coordinates; sketch/series telemetry must stay
# bounded as the horizon grows; and the distributed plane must heal
# back to its centralized twin under periodic partition/crash windows.
# Every soak run here checks the watchdog's invariants online, including
# invariant 6: the city world's cached link SNRs equal a fresh path-loss
# read and its advert cache (cached per-client delays and per-cell ATDs)
# a fresh recomputation, bit for bit. The property test that drives
# both caches through random joins, leaves, drift and AP crash/restart
# (advert_cache_tracks_every_world_change in tests/properties.rs) runs
# in the workspace test stage above.
# The sketch property suite pins merge commutativity / associativity
# and the deterministic rank-error bound against an exact ECDF.
cargo test -q --offline --release --test soak
cargo test -q --offline --release -p acorn-obs --test sketch_props

echo
echo "== determinism across thread counts =="
# determinism.rs sweeps ACORN_THREADS internally (fault-free AND faulty
# composites, the per-transmission DCB runs over the overlapping-BSS
# grid, plus the faulty distributed control plane: loss + a
# zone-controller crash, event-log/telemetry/per-zone-allocation
# equality); the outer loop additionally pins the *ambient* thread
# count for the golden-fingerprint and resilience suites.
# baseband_determinism.rs sweeps ACORN_THREADS itself and asserts the
# batched packet engine (run_packets) is outcome-for-outcome bit-identical
# to the per-packet path at 1/2/8 threads; the obs_overhead gate above
# holds the companion zero-allocation claim for both paths.
for t in 1 2 8; do
    echo "-- ACORN_THREADS=$t --"
    ACORN_THREADS=$t cargo test -q --offline --release \
        --test determinism --test event_runtime --test resilience
done
cargo test -q --offline --release --test baseband_determinism

echo
echo "== city-scale determinism (10k APs, sharded + memoized) =="
# The full 25x25-district composite: sharded re-allocation and the
# memoized table swept at ACORN_THREADS = 1/2/8 inside the test.
ACORN_CITY_FULL=1 cargo test -q --offline --release \
    --test determinism sharded_and_city

echo
echo "== repository benchmark (perfbench, default seed) =="
# perfbench builds the workspace crates by path, so an API change that
# breaks its build fails here; at the default seed every workload checks
# its outputs against recorded fingerprints, so a change that moves any
# simulated output does too. Its last line is the result JSON.
bench_out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1)
bench_last=$(printf '%s\n' "$bench_out" | tail -n 1)
echo "$bench_last"
case "$bench_last" in
    *'"correct": true'*) ;;
    *)
        printf '%s\n' "$bench_out" | tail -n 40 >&2
        echo "perfbench: outputs are not correct" >&2
        exit 1
        ;;
esac

echo
echo "ci: all gates passed"
