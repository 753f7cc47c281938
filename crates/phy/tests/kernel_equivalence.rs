//! Pins the §4.2 estimator kernel to its oracle, bit for bit.
//!
//! The fast union bound ([`coded_ber`] and the [`Crossover`] it splits
//! into: one pair of channel logarithms per crossover, `ln n!` from a
//! table) and the search built on it
//! ([`LinkQualityEstimator::error_rates`] with one bound per MCS, and
//! [`LinkQualityEstimator::best_rate_point`] with its descending-rate
//! pruned scan and one crossover per modulation and mode) are compared
//! against the retained term-by-term bound [`coded_ber_reference`] and an
//! unpruned ascending 16-MCS scan built on it. Every comparison is on
//! `to_bits`, so no estimator output may move by even one ulp.

use std::cell::RefCell;

use acorn_phy::coding::{coded_ber_reference, per_from_ber_bytes};
use acorn_phy::estimator::RatePoint;
use acorn_phy::{
    coded_ber, gaussian_snr_average, ChannelWidth, CodeRate, Crossover, LinkQualityEstimator, Mcs,
    McsIndex, MimoMode,
};

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

/// The estimator's SNR grid: −40…60 dB in 1/64 dB steps (every grid
/// point in release builds, every 16th in debug builds), plus the
/// non-finite SNRs.
fn snr_grid() -> impl Iterator<Item = f64> {
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    (0..=100 * 64)
        .step_by(stride)
        .map(|i| -40.0 + i as f64 / 64.0)
        .chain([f64::NEG_INFINITY, f64::INFINITY, f64::NAN])
}

/// `(coded BER, PER)` of one MCS at a mode-effective SNR, as the
/// estimator computed them before the kernel was rewritten: every
/// quadrature node (or the one crisp point) runs the oracle bound, and
/// Eq. 6 turns each node's coded BER into its PER.
fn oracle_error_rates(e: &LinkQualityEstimator, mcs: &Mcs, eff_snr_db: f64) -> (f64, f64) {
    let ber = |g: f64| coded_ber_reference(mcs.code_rate, mcs.modulation.ber_awgn(g));
    let per = |b: f64| per_from_ber_bytes(b, e.packet_bytes);
    if e.fading_sigma_db > 0.0 {
        // Both averages visit the same nodes; evaluate the oracle once per
        // node and look it up again for the PER average.
        let nodes = RefCell::new(Vec::with_capacity(7));
        let b = gaussian_snr_average(eff_snr_db, e.fading_sigma_db, |g| {
            let b = ber(g);
            nodes.borrow_mut().push((g.to_bits(), b));
            b
        });
        let p = gaussian_snr_average(eff_snr_db, e.fading_sigma_db, |g| {
            let nodes = nodes.borrow();
            let hit = nodes.iter().find(|&&(node, _)| node == g.to_bits());
            per(hit.map_or_else(|| ber(g), |&(_, b)| b))
        });
        (b.clamp(0.0, 0.5), p.clamp(0.0, 1.0))
    } else {
        let b = ber(eff_snr_db);
        (b, per(b))
    }
}

fn mode_of(mcs: &Mcs) -> MimoMode {
    if mcs.n_ss == 1 {
        MimoMode::Stbc
    } else {
        MimoMode::Sdm
    }
}

fn bits(p: &RatePoint) -> (u8, MimoMode, u64, u64, u64) {
    (
        p.mcs.value(),
        p.mode,
        p.coded_ber.to_bits(),
        p.per.to_bits(),
        p.goodput_bps.to_bits(),
    )
}

#[test]
fn coded_ber_matches_the_reference_bound() {
    let mut bers = vec![
        0.0,
        -0.0,
        -1e-3,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE * (1.0 - f64::EPSILON),
        f64::MIN_POSITIVE,
        0.5,
        0.7,
        1.0,
        f64::INFINITY,
        f64::NAN,
    ];
    // 1e-300 … 0.5, log-spaced: 4000 points.
    let (lo, hi) = (1e-300f64.ln(), 0.5f64.ln());
    bers.extend((0..=4000).map(|i| (lo + (hi - lo) * i as f64 / 4000.0).exp()));
    bers.push(0.5 - f64::EPSILON / 4.0);
    for &p in &bers {
        // One crossover serves every code rate, as in a search.
        let channel = Crossover::new(p);
        for rate in CodeRate::ALL {
            let reference = coded_ber_reference(rate, p).to_bits();
            assert_eq!(
                coded_ber(rate, p).to_bits(),
                reference,
                "{rate:?} at channel BER {p:e}"
            );
            assert_eq!(
                channel.coded_ber(rate).to_bits(),
                reference,
                "shared crossover, {rate:?} at channel BER {p:e}"
            );
        }
    }
}

#[test]
fn error_rates_and_search_match_an_unpruned_oracle_scan() {
    for e in estimators() {
        for snr in snr_grid() {
            let mut oracle_best: [Option<RatePoint>; 2] = [None; 2];
            for idx in McsIndex::all() {
                let mcs = idx.mcs();
                let mode = mode_of(&mcs);
                let eff = mode.effective_snr_db(snr);
                let (ber, per) = oracle_error_rates(&e, &mcs, eff);
                let (fast_ber, fast_per) = e.error_rates(&mcs, eff);
                assert_eq!(
                    (fast_ber.to_bits(), fast_per.to_bits()),
                    (ber.to_bits(), per.to_bits()),
                    "error_rates, MCS {} at {snr} dB, sigma {}",
                    idx.value(),
                    e.fading_sigma_db
                );
                for (w, width) in WIDTHS.into_iter().enumerate() {
                    let candidate = RatePoint {
                        mcs: idx,
                        mode,
                        coded_ber: ber,
                        per,
                        goodput_bps: (1.0 - per) * mcs.rate_bps(width, e.gi),
                    };
                    assert_eq!(
                        bits(&e.rate_point_at(idx, snr, width)),
                        bits(&candidate),
                        "rate_point_at, MCS {} at {snr} dB, {width:?}",
                        idx.value()
                    );
                    // MCS 0 seeds the scan; later MCSs replace it only
                    // on a strictly higher goodput.
                    let replaces =
                        oracle_best[w].is_none_or(|b| candidate.goodput_bps > b.goodput_bps);
                    if replaces {
                        oracle_best[w] = Some(candidate);
                    }
                }
            }
            for (w, width) in WIDTHS.into_iter().enumerate() {
                let oracle = oracle_best[w].expect("sixteen MCSs scanned");
                assert_eq!(
                    bits(&e.best_rate_point(snr, width)),
                    bits(&oracle),
                    "best_rate_point at {snr} dB, {width:?}, sigma {}",
                    e.fading_sigma_db
                );
            }
        }
    }
}
