//! Accuracy gate for the memoized goodput table.
//!
//! The table trades the exact union-bound PER evaluation for a quantized
//! SNR lookup; the price must stay inside the documented budget
//! ([`GoodputTable::GOODPUT_TOLERANCE_BPS`]) and must never change an
//! allocation decision. `scripts/ci.sh` runs this file as an explicit
//! gate.

use acorn::core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn::core::NullSink;
use acorn::core::{AcornConfig, AcornController};
use acorn::phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn::sim::scenario::{enterprise_grid, fig11, topology1, topology2};
use acorn::topology::{ClientId, Wlan};
use std::sync::Arc;

/// Full-range sweep: at every tabulated bin and at off-bin offsets (the
/// worst cases for linear interpolation), on both widths, the memoized
/// best-rate goodput stays within the documented tolerance of the exact
/// union-bound search. The offsets cover the interpolation interior;
/// the exact bin centres must agree almost exactly.
#[test]
fn table_goodput_error_is_within_documented_tolerance() {
    let est = LinkQualityEstimator::default();
    let table = GoodputTable::new(est);
    let (lo, step) = (
        GoodputTable::DEFAULT_SNR_MIN_DB,
        GoodputTable::DEFAULT_SNR_STEP_DB,
    );
    let n_bins = ((GoodputTable::DEFAULT_SNR_MAX_DB - lo) / step) as usize;
    let mut max_err = 0.0f64;
    for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
        for b in 0..n_bins {
            for off in [0.0, 0.25, 0.5, 0.75] {
                let snr = lo + (b as f64 + off) * step;
                let approx = table.rate_point(snr, width).goodput_bps;
                let exact = est.best_rate_point(snr, width).goodput_bps;
                max_err = max_err.max((approx - exact).abs());
            }
        }
    }
    assert!(
        max_err <= GoodputTable::GOODPUT_TOLERANCE_BPS,
        "max goodput error {max_err} b/s exceeds the documented budget"
    );
    // The build-time self-check must have recorded the same bound.
    assert!(table.max_check_error_bps() <= GoodputTable::GOODPUT_TOLERANCE_BPS);
    // Everything above was in range: all hits, no misses.
    let stats = table.stats();
    assert_eq!(stats.misses, 0, "sweep left the tabulated range");
    assert!(stats.hits > 0);
}

/// Outside the tabulated range the table falls back to the exact
/// estimator, so the error there is identically zero.
#[test]
fn out_of_range_lookups_are_exact() {
    let est = LinkQualityEstimator::default();
    let table = GoodputTable::new(est);
    for snr in [-60.0, 75.0, 120.0] {
        for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let a = table.rate_point(snr, width);
            let b = est.best_rate_point(snr, width);
            assert_eq!(a.goodput_bps.to_bits(), b.goodput_bps.to_bits());
            assert_eq!(a.mcs, b.mcs);
        }
    }
    assert!(table.stats().misses > 0);
}

/// Runs Algorithm 2 on a golden topology twice — once on the exact model,
/// once on the table-backed model — from identical associations, and
/// demands identical colorings.
fn assert_coloring_unchanged(wlan: &Wlan, label: &str) {
    let exact = AcornController::new(AcornConfig::default());
    let table = AcornController::with_table(
        AcornConfig::default(),
        Arc::new(GoodputTable::new(LinkQualityEstimator::default())),
    );
    let mut state = exact.new_state(wlan, 1);
    for c in 0..wlan.clients.len() {
        exact.associate(wlan, &mut state, ClientId(c), &NullSink);
    }
    let model_exact = exact.build_model(wlan, &state);
    let model_table = table.build_model(wlan, &state);
    let plan = AcornConfig::default().plan;
    let cfg = AllocationConfig::default();
    let spec = AllocSpec {
        restarts: 4,
        seed: 2010,
        ..AllocSpec::default()
    };
    let r_exact = allocate(&model_exact, &plan, &cfg, &spec, &NullSink);
    let r_table = allocate(&model_table, &plan, &cfg, &spec, &NullSink);
    assert_eq!(
        r_exact.assignments, r_table.assignments,
        "{label}: the table changed the coloring"
    );
    // The per-component path on the table model agrees with the plain
    // path too.
    state.assignments = r_table.assignments.clone();
    let r_sharded = table.reallocate(&model_table, &mut state, 4, 2010, true, &NullSink);
    assert!(
        r_sharded.total_bps >= r_table.total_bps * (1.0 - 1e-9),
        "{label}: sharding lost goodput"
    );
}

#[test]
fn golden_topology_colorings_are_unchanged_by_the_table() {
    assert_coloring_unchanged(&topology1(), "topology1");
    assert_coloring_unchanged(&topology2(), "topology2");
    assert_coloring_unchanged(&fig11(), "fig11");
    assert_coloring_unchanged(&enterprise_grid(3, 3, 45.0, 24, 7), "enterprise_grid 3x3");
}
