//! Pins the controller's exact-estimator queries to the full §4.2
//! pipeline, bit for bit.
//!
//! [`NetworkModel::client_link`] and [`AcornController::delay_from_snr`]
//! search only the width they are asked about; they must return exactly
//! what the two-width [`LinkQualityEstimator::estimate`] reports at that
//! width. [`AcornController::delays_from_snr`], which fills the city
//! world's advert cache, must return exactly `delay_from_snr` at each
//! width, with and without a goodput table.
//! [`AcornController::adapt_widths`] reads a bonded AP's two
//! contention-free throughputs from the model's `cell_base` table instead
//! of re-estimating its cell, which relies on that table holding exactly
//! `cell_airtime(ap, w).cell_throughput_bps(1.0)`.

use acorn_core::{AcornConfig, AcornController, NetworkModel, NullSink};
use acorn_mac::timing::delivery_delay_s;
use acorn_phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn_topology::{ApId, ClientId, InterferenceGraph, Point, Wlan};
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
