//! Pins the controller's exact-estimator queries to the full §4.2
//! pipeline, bit for bit.
//!
//! [`NetworkModel::client_link`] and [`AcornController::delay_from_snr`]
//! search only the width they are asked about; they must return exactly
//! what the two-width [`LinkQualityEstimator::estimate`] reports at that
//! width. [`AcornController::delays_from_snr`], which fills the city
//! world's advert cache, must return exactly `delay_from_snr` at each
//! width, with and without a goodput table.
//! No `delay_from_snr` is below [`AcornController::delay_floor_s`], the
//! bound Algorithm 1 ranks an empty cell by.
//! [`AcornController::adapt_widths`] reads a bonded AP's two
//! contention-free throughputs from the model's `cell_base` table instead
//! of re-estimating its cell, which relies on that table holding exactly
//! `cell_airtime(ap, w).cell_throughput_bps(1.0)`. And
//! `NetworkModel::best_switch`, Algorithm 2's colour scan over
//! per-channel neighbour sets, must pick the colour and the gain bits of
//! the per-colour [`ThroughputModel::delta_bps`] fold.

use acorn_core::{
    AcornConfig, AcornController, ClientSnr, NetworkModel, NullSink, ThroughputModel,
};
use acorn_mac::timing::delivery_delay_s;
use acorn_phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn_topology::{
    ApId, Channel20, ChannelAssignment, ChannelPlan, ClientId, InterferenceGraph, Point, Wlan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const WIDTHS: [ChannelWidth; 2] = [ChannelWidth::Ht20, ChannelWidth::Ht40];

/// The crisp default and a fading-averaged estimator.
fn estimators() -> [LinkQualityEstimator; 2] {
    [
        LinkQualityEstimator::default(),
        LinkQualityEstimator {
            fading_sigma_db: 3.0,
            ..LinkQualityEstimator::default()
        },
    ]
}

/// HT20 SNRs from −40 to 60 dB in 1/16 dB steps, plus the non-finite ones.
fn snr_grid() -> impl Iterator<Item = f64> {
    (0..=100 * 16).map(|i| -40.0 + i as f64 / 16.0).chain([
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NAN,
    ])
}

/// An `nx × ny` enterprise floor at 50 m spacing with clients uniform over
/// the covered rectangle plus half a spacing, shadowing on.
fn enterprise_grid(nx: usize, ny: usize, n_clients: usize, seed: u64) -> Wlan {
    let spacing = 50.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let aps = (0..ny)
        .flat_map(|j| (0..nx).map(move |i| Point::new(i as f64 * spacing, j as f64 * spacing)))
        .collect();
    let (w, h) = ((nx - 1) as f64 * spacing, (ny - 1) as f64 * spacing);
    let m = spacing / 2.0;
    let clients = (0..n_clients)
        .map(|_| Point::new(rng.gen_range(-m..=w + m), rng.gen_range(-m..=h + m)))
        .collect();
    Wlan::new(aps, clients, seed)
}

#[test]
fn exact_queries_match_the_two_width_estimate() {
    for e in estimators() {
        let config = AcornConfig {
            estimator: e,
            ..AcornConfig::default()
        };
        let ctl = AcornController::new(config);
        let table = Arc::new(GoodputTable::build(e, -12.0, 48.0, 0.25));
        let tabled = AcornController::with_table(config, table);
        let model = NetworkModel::with_config(
            InterferenceGraph::new(0),
            Vec::new(),
            e,
            config.payload_bytes,
        );
        for snr in snr_grid() {
            let est = e.estimate(snr, ChannelWidth::Ht20);
            for width in WIDTHS {
                let p = est.rate_point(width);
                let rate_bps = p.mcs.mcs().rate_bps(width, e.gi);
                let link = model.client_link(snr, width);
                assert_eq!(
                    (link.rate_bps.to_bits(), link.per.to_bits()),
                    (rate_bps.to_bits(), p.per.to_bits()),
                    "client_link at {snr} dB, {width:?}, sigma {}",
                    e.fading_sigma_db
                );
                let delay = delivery_delay_s(config.payload_bytes, rate_bps, p.per);
                assert_eq!(
                    ctl.delay_from_snr(snr, width).to_bits(),
                    delay.to_bits(),
                    "delay_from_snr at {snr} dB, {width:?}, sigma {}",
                    e.fading_sigma_db
                );
                // Algorithm 1 ranks an empty cell by this floor until it
                // could win; no searched delay may fall below it.
                for c in [&ctl, &tabled] {
                    let d = c.delay_from_snr(snr, width);
                    assert!(
                        d.is_nan() || d >= c.delay_floor_s(width),
                        "delay below the floor at {snr} dB, {width:?}, sigma {}, table {}",
                        e.fading_sigma_db,
                        c.table().is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn two_width_delays_match_the_one_width_queries() {
    for e in estimators() {
        let config = AcornConfig {
            estimator: e,
            ..AcornConfig::default()
        };
        // A narrow table, so the grid also walks its exact out-of-range
        // path.
        let table = Arc::new(GoodputTable::build(e, -12.0, 48.0, 0.25));
        for ctl in [
            AcornController::new(config),
            AcornController::with_table(config, table),
        ] {
            for snr in snr_grid() {
                let both = ctl.delays_from_snr(snr);
                for width in WIDTHS {
                    assert_eq!(
                        both[width as usize].to_bits(),
                        ctl.delay_from_snr(snr, width).to_bits(),
                        "delays_from_snr at {snr} dB, {width:?}, sigma {}, table {}",
                        e.fading_sigma_db,
                        ctl.table().is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn cell_base_is_the_contention_free_cell_throughput() {
    let wlan = enterprise_grid(5, 5, 60, 11);
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    for ctl in [
        AcornController::new(AcornConfig::default()),
        AcornController::with_table(AcornConfig::default(), table),
    ] {
        let mut state = ctl.new_state(&wlan, 3);
        for c in 0..wlan.clients.len() {
            ctl.associate(&wlan, &mut state, ClientId(c), &NullSink);
        }
        let model = ctl.build_model(&wlan, &state);
        let mut populated = 0;
        for ap in (0..wlan.aps.len()).map(ApId) {
            populated += usize::from(!state.cell_clients(ap).is_empty());
            for width in WIDTHS {
                assert_eq!(
                    model.cell_base_bps(ap, width).to_bits(),
                    model
                        .cell_airtime(ap, width)
                        .cell_throughput_bps(1.0)
                        .to_bits(),
                    "AP {} at {width:?}, table {}",
                    ap.0,
                    ctl.table().is_some()
                );
            }
        }
        assert!(populated > 10, "only {populated} cells have clients");
    }
}

/// The first-max fold over [`ThroughputModel::delta_bps`] that
/// `NetworkModel::best_switch` replaces: the same colour, the same gain.
fn per_colour_scan(
    model: &NetworkModel,
    ap: ApId,
    colours: &[ChannelAssignment],
    assignments: &[ChannelAssignment],
) -> (ChannelAssignment, f64) {
    let mut best: Option<(ChannelAssignment, f64)> = None;
    for &c in colours {
        let gain = model.delta_bps(ap, c, assignments);
        match best {
            Some((_, g)) if g >= gain => {}
            _ => best = Some((c, gain)),
        }
    }
    best.unwrap_or((assignments[ap.0], 0.0))
}

/// Every plan size's colours, moved up by `offset` channels (even, so the
/// bonds stay legal).
fn colours_at(plan_size: u8, offset: u8) -> Vec<ChannelAssignment> {
    ChannelPlan::restricted(plan_size)
        .all_assignments()
        .into_iter()
        .map(|a| match a {
            ChannelAssignment::Single(c) => ChannelAssignment::Single(Channel20(c.0 + offset)),
            ChannelAssignment::Bonded(c) => ChannelAssignment::Bonded(Channel20(c.0 + offset)),
        })
        .collect()
}

/// Random cells of zero to three clients at uniform −2…40 dB.
fn random_cells(rng: &mut StdRng, n: usize) -> Vec<Vec<ClientSnr>> {
    (0..n)
        .map(|_| {
            (0..rng.gen_range(0..4usize))
                .map(|client| ClientSnr {
                    client,
                    snr20_db: rng.gen_range(-2.0..40.0),
                })
                .collect()
        })
        .collect()
}

#[test]
fn best_switch_matches_the_per_colour_scan_exactly() {
    // Seeded random graphs at every plan size, a 70-AP complete graph
    // (degree 69: two blocks of neighbour slots, heap-held terms), and
    // channel indices beyond 64 (heap-held channel sets). Every AP's
    // colour scan must pick the per-colour fold's colour with its gain's
    // bits.
    let mut rng = StdRng::seed_from_u64(2010);
    let mut cases: Vec<(InterferenceGraph, u8, u8)> = Vec::new();
    for plan_size in 1..=12u8 {
        for _ in 0..4 {
            let n = rng.gen_range(1..16usize);
            let p = rng.gen_range(0.2..0.9);
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .filter(|_| rng.gen_bool(p))
                .collect();
            cases.push((InterferenceGraph::from_edges(n, &edges), plan_size, 0));
        }
    }
    for (plan_size, offset) in [(12, 0), (5, 0), (12, 64), (7, 200), (12, 240)] {
        cases.push((InterferenceGraph::complete(70), plan_size, offset));
    }
    for (case, (graph, plan_size, offset)) in cases.into_iter().enumerate() {
        let n = graph.len();
        let model = NetworkModel::new(graph, random_cells(&mut rng, n));
        let colours = colours_at(plan_size, offset);
        // Debug builds scan every 7th AP of the complete graph.
        let stride = if cfg!(debug_assertions) && n > 16 {
            7
        } else {
            1
        };
        for _ in 0..3 {
            let assignments: Vec<ChannelAssignment> = (0..n)
                .map(|_| colours[rng.gen_range(0..colours.len())])
                .collect();
            for ap in (0..n).step_by(stride).map(ApId) {
                let (c_fast, g_fast) = model.best_switch(ap, &colours, &assignments);
                let (c_ref, g_ref) = per_colour_scan(&model, ap, &colours, &assignments);
                assert_eq!(
                    (c_fast, g_fast.to_bits()),
                    (c_ref, g_ref.to_bits()),
                    "case {case} (plan {plan_size} at +{offset}), AP {}: {g_fast} vs {g_ref}",
                    ap.0
                );
            }
        }
    }
}
