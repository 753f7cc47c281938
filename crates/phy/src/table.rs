//! Memoized, quantized SNR → PER → goodput lookup tables.
//!
//! The exact estimator pipeline ([`LinkQualityEstimator::best_rate_point`])
//! evaluates the K=7 union-bound coded-BER series and the Eq. 6 PER model
//! for up to 16 MCSs on every call. That is exact but expensive, and the
//! city-scale model evaluates it millions of times on *smoothly varying*
//! SNR inputs. A [`GoodputTable`] trades a one-off build (one exact
//! evaluation per MCS × quantized SNR bin) for O(MCS) lookups with
//! linear interpolation of the PER curves.
//!
//! Design points:
//!
//! * The table stores PER and coded BER per MCS over a uniform SNR grid,
//!   evaluated at the *mode-effective* SNR through the same error model
//!   as the exact search ([`LinkQualityEstimator::error_rates`], with the
//!   channel crossover shared between the MCSs of one mode and
//!   modulation), so the tabulated values are samples of the exact
//!   curves, including the fading-averaged variant. Error rates do not
//!   depend on the width, so both widths read one copy; only the nominal
//!   rate is stored per width.
//! * Out-of-range SNRs fall back to the exact estimator (counted as
//!   misses), so the table is never wrong outside its domain — only
//!   slower.
//! * The build runs a self-check sweep at off-grid SNRs (bin midpoints)
//!   comparing interpolated vs exact goodput; the observed maximum
//!   absolute error is recorded and exposed via
//!   [`GoodputTable::max_check_error_bps`] so callers (and the CI accuracy
//!   gate) can assert it against the documented tolerance.
//! * Hit/miss/rebuild counters are relaxed atomics — shared through an
//!   `Arc` by every model clone, flushed into the observability sink by
//!   `acorn-core`.

use crate::estimator::{
    mode_of, ErrorRatesAt, LinkClass, LinkQualityEstimate, LinkQualityEstimator, RatePoint,
};
use crate::mcs::McsIndex;
use crate::ofdm::ChannelWidth;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time snapshot of a table's usage counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups outside the tabulated SNR range, answered exactly.
    pub misses: u64,
    /// Times the table has been (re)built.
    pub rebuilds: u64,
    /// Maximum absolute goodput error (bits/s) observed by the build-time
    /// self-check sweep against the exact union-bound evaluation.
    pub max_quant_error_bps: f64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
    /// `f64::to_bits` of the max observed error; non-negative f64 bit
    /// patterns order like the values, so `fetch_max` works.
    max_quant_error_bits: AtomicU64,
}

/// A memoized goodput table for one estimator configuration.
#[derive(Debug)]
pub struct GoodputTable {
    estimator: LinkQualityEstimator,
    snr_min_db: f64,
    snr_step_db: f64,
    n_bins: usize,
    n_mcs: usize,
    /// `per[m * n_bins + b]` — PER of MCS `m` at SNR bin `b`, at either
    /// width.
    per: Vec<f64>,
    /// Same layout as `per`, post-FEC coded BER.
    coded_ber: Vec<f64>,
    /// `rate[w * n_mcs + m]` — nominal rate (bits/s) of MCS `m` at width
    /// index `w` (0 = HT20, 1 = HT40).
    rate: Vec<f64>,
    counters: Counters,
}

fn width_index(width: ChannelWidth) -> usize {
    match width {
        ChannelWidth::Ht20 => 0,
        ChannelWidth::Ht40 => 1,
    }
}

impl GoodputTable {
    /// Default tabulated SNR range (dB): wide enough that every SNR an
    /// indoor deployment produces (including bonding calibration and MIMO
    /// mode offsets) stays in range.
    pub const DEFAULT_SNR_MIN_DB: f64 = -40.0;
    /// Upper end of the default range; above it every MCS is error-free
    /// and the curves are flat.
    pub const DEFAULT_SNR_MAX_DB: f64 = 60.0;
    /// Default quantization step (dB). The PER waterfalls span a few dB,
    /// so 1/16 dB resolves them to within the documented
    /// [`GOODPUT_TOLERANCE_BPS`](GoodputTable::GOODPUT_TOLERANCE_BPS).
    pub const DEFAULT_SNR_STEP_DB: f64 = 0.0625;
    /// Documented error budget for the default table: the maximum
    /// absolute goodput deviation from the exact union-bound evaluation,
    /// anywhere in the tabulated SNR range, is below 150 kb/s — about
    /// 5·10⁻⁴ of the 270 Mb/s HT40 top rate (measured worst case:
    /// ~136 kb/s at a PER-waterfall midpoint). The CI accuracy gate
    /// asserts the build-time self-check against this constant.
    pub const GOODPUT_TOLERANCE_BPS: f64 = 1.5e5;

    /// Builds a table over the default SNR range and step.
    pub fn new(estimator: LinkQualityEstimator) -> GoodputTable {
        GoodputTable::build(
            estimator,
            Self::DEFAULT_SNR_MIN_DB,
            Self::DEFAULT_SNR_MAX_DB,
            Self::DEFAULT_SNR_STEP_DB,
        )
    }

    /// Builds a table covering `[snr_min_db, snr_max_db]` with the given
    /// step. All three must be finite and describe at least two bins.
    pub fn build(
        estimator: LinkQualityEstimator,
        snr_min_db: f64,
        snr_max_db: f64,
        snr_step_db: f64,
    ) -> GoodputTable {
        assert!(
            snr_min_db.is_finite() && snr_max_db.is_finite() && snr_step_db.is_finite(),
            "table bounds must be finite"
        );
        assert!(snr_step_db > 0.0, "SNR step must be positive");
        assert!(snr_max_db > snr_min_db, "empty SNR range");
        let n_bins = (((snr_max_db - snr_min_db) / snr_step_db).ceil() as usize) + 1;
        let n_mcs = McsIndex::all().count();
        let mut per = vec![0.0; n_mcs * n_bins];
        let mut coded_ber = vec![0.0; n_mcs * n_bins];
        for b in 0..n_bins {
            let mut rates = ErrorRatesAt::new(&estimator, snr_min_db + b as f64 * snr_step_db);
            for (m, idx) in McsIndex::all().enumerate() {
                (coded_ber[m * n_bins + b], per[m * n_bins + b]) = rates.of(&idx.mcs());
            }
        }
        let rate = [ChannelWidth::Ht20, ChannelWidth::Ht40]
            .into_iter()
            .flat_map(|width| {
                McsIndex::all().map(move |idx| idx.mcs().rate_bps(width, estimator.gi))
            })
            .collect();
        let table = GoodputTable {
            estimator,
            snr_min_db,
            snr_step_db,
            n_bins,
            n_mcs,
            per,
            coded_ber,
            rate,
            counters: Counters::default(),
        };
        table.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        table.self_check();
        table
    }

    /// The estimator configuration this table was built from.
    pub fn estimator(&self) -> &LinkQualityEstimator {
        &self.estimator
    }

    /// Build-time self-check: evaluate the interpolated search at every
    /// bin midpoint (the worst case for linear interpolation) on both
    /// widths and record the max absolute goodput deviation from the
    /// exact exhaustive search.
    fn self_check(&self) {
        let mut max_err = 0.0f64;
        for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            for b in 0..self.n_bins - 1 {
                let snr = self.snr_min_db + (b as f64 + 0.5) * self.snr_step_db;
                let approx = self
                    .lookup(snr, width)
                    .map(|p| p.goodput_bps)
                    .unwrap_or(0.0);
                let exact = self.estimator.best_rate_point(snr, width).goodput_bps;
                max_err = max_err.max((approx - exact).abs());
            }
        }
        self.counters
            .max_quant_error_bits
            .fetch_max(max_err.to_bits(), Ordering::Relaxed);
    }

    /// Raw interpolated lookup; `None` when `snr_db` is outside the
    /// tabulated range. Does not touch the counters.
    fn lookup(&self, snr_db: f64, width: ChannelWidth) -> Option<RatePoint> {
        let t = (snr_db - self.snr_min_db) / self.snr_step_db;
        if !(0.0..=(self.n_bins - 1) as f64).contains(&t) {
            return None;
        }
        let i0 = (t.floor() as usize).min(self.n_bins.saturating_sub(2));
        let frac = t - i0 as f64;
        let w = width_index(width);
        let mut best: Option<RatePoint> = None;
        for (m, idx) in McsIndex::all().enumerate() {
            let base = m * self.n_bins + i0;
            let per = self.per[base] + frac * (self.per[base + 1] - self.per[base]);
            let ber =
                self.coded_ber[base] + frac * (self.coded_ber[base + 1] - self.coded_ber[base]);
            let goodput = (1.0 - per) * self.rate[w * self.n_mcs + m];
            let candidate = RatePoint {
                mcs: idx,
                mode: mode_of(&idx.mcs()),
                coded_ber: ber,
                per,
                goodput_bps: goodput,
            };
            match &best {
                Some(b) if b.goodput_bps >= goodput => {}
                _ => best = Some(candidate),
            }
        }
        best
    }

    /// Memoized equivalent of [`LinkQualityEstimator::best_rate_point`]:
    /// interpolated within the tabulated range, exact (and counted as a
    /// miss) outside it.
    pub fn rate_point(&self, snr_db: f64, width: ChannelWidth) -> RatePoint {
        match self.lookup(snr_db, width) {
            Some(p) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                p
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                self.estimator.best_rate_point(snr_db, width)
            }
        }
    }

    /// Memoized equivalent of the full
    /// [`LinkQualityEstimator::estimate`] pipeline: calibrate the
    /// measured SNR to both widths, look up the best operating point on
    /// each, classify.
    pub fn estimate(&self, measured_snr_db: f64, measured_at: ChannelWidth) -> LinkQualityEstimate {
        let e = &self.estimator;
        let snr20 = e.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht20);
        let snr40 = e.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht40);
        let best20 = self.rate_point(snr20, ChannelWidth::Ht20);
        let best40 = self.rate_point(snr40, ChannelWidth::Ht40);
        let class = if best40.goodput_bps > e.cb_benefit_threshold * best20.goodput_bps {
            LinkClass::Good
        } else {
            LinkClass::Poor
        };
        LinkQualityEstimate {
            snr20_db: snr20,
            snr40_db: snr40,
            best20,
            best40,
            class,
        }
    }

    /// Max absolute goodput error (bits/s) recorded by the build-time
    /// self-check sweep.
    pub fn max_check_error_bps(&self) -> f64 {
        f64::from_bits(self.counters.max_quant_error_bits.load(Ordering::Relaxed))
    }

    /// Snapshot of the usage counters. The counters are cumulative over
    /// the table's lifetime and are **never reset** — a table is routinely
    /// shared by `Arc` across models and sequential runs, and a draining
    /// read here would silently steal counts from every other sharer (the
    /// footgun DESIGN.md §13.3 documents). Periodic reporters keep their
    /// own cursor into these values (see `NetworkModel::flush_stats_into`)
    /// and flush deltas.
    pub fn stats(&self) -> TableStats {
        TableStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            rebuilds: self.counters.rebuilds.load(Ordering::Relaxed),
            max_quant_error_bps: self.max_check_error_bps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default table is expensive to build under the debug profile,
    /// so tests share one; tests asserting exact counter values build
    /// their own (smaller) tables.
    fn table() -> &'static GoodputTable {
        static TABLE: std::sync::OnceLock<GoodputTable> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| GoodputTable::new(LinkQualityEstimator::default()))
    }

    #[test]
    fn in_range_lookup_is_a_hit_and_close_to_exact() {
        let t = GoodputTable::build(LinkQualityEstimator::default(), -12.0, 48.0, 0.0625);
        let e = LinkQualityEstimator::default();
        for snr in [-5.0, 1.65, 8.3, 14.72, 23.9, 31.05, 45.0] {
            for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                let approx = t.rate_point(snr, width);
                let exact = e.best_rate_point(snr, width);
                assert!(
                    (approx.goodput_bps - exact.goodput_bps).abs()
                        < GoodputTable::GOODPUT_TOLERANCE_BPS,
                    "snr {snr} {width:?}: {} vs {}",
                    approx.goodput_bps,
                    exact.goodput_bps
                );
            }
        }
        let s = t.stats();
        assert_eq!(s.hits, 14);
        assert_eq!(s.misses, 0);
        assert_eq!(s.rebuilds, 1);
    }

    #[test]
    fn grid_point_lookup_is_exact_to_rounding() {
        // At bin centres interpolation is a no-op: the tabulated values
        // are exact-curve samples, so goodput matches to f64 noise.
        let e = LinkQualityEstimator::default();
        let t = GoodputTable::build(e, -12.0, 48.0, 0.25);
        for b in [0usize, 7, 60, 141, 240] {
            let snr = -12.0 + b as f64 * 0.25;
            let approx = t.rate_point(snr, ChannelWidth::Ht20);
            let exact = e.best_rate_point(snr, ChannelWidth::Ht20);
            assert!(
                (approx.goodput_bps - exact.goodput_bps).abs() < 1e-3,
                "bin {b}: {} vs {}",
                approx.goodput_bps,
                exact.goodput_bps
            );
            // Below the last bin the interpolation weight is exactly 0,
            // so both widths read the one stored sample of `error_rates`.
            if b < 240 {
                for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                    let p = t.rate_point(snr, width);
                    let (ber, per) = e.error_rates(&p.mcs.mcs(), p.mode.effective_snr_db(snr));
                    assert_eq!(
                        (p.coded_ber.to_bits(), p.per.to_bits()),
                        (ber.to_bits(), per.to_bits()),
                        "bin {b} {width:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_falls_back_to_exact() {
        let e = LinkQualityEstimator::default();
        let t = GoodputTable::build(e, -12.0, 48.0, 0.5);
        for snr in [-100.0, 90.0, f64::NAN] {
            let approx = t.rate_point(snr, ChannelWidth::Ht20);
            let exact = e.best_rate_point(snr, ChannelWidth::Ht20);
            assert_eq!(approx.goodput_bps.to_bits(), exact.goodput_bps.to_bits());
            assert_eq!(approx.mcs, exact.mcs);
        }
        assert_eq!(t.stats().misses, 3);
        assert_eq!(t.stats().hits, 0);
    }

    #[test]
    fn self_check_error_is_recorded_and_small() {
        let t = table();
        let err = t.max_check_error_bps();
        assert!(err > 0.0, "midpoint sweep should see some error");
        assert!(
            err < GoodputTable::GOODPUT_TOLERANCE_BPS,
            "max quantization error {err} b/s"
        );
    }

    #[test]
    fn estimate_matches_exact_classification() {
        let t = table();
        let e = LinkQualityEstimator::default();
        for snr in (-10..=45).map(f64::from) {
            let a = t.estimate(snr, ChannelWidth::Ht20);
            let b = e.estimate(snr, ChannelWidth::Ht20);
            assert_eq!(a.class, b.class, "snr {snr}");
            assert_eq!(a.snr20_db.to_bits(), b.snr20_db.to_bits());
            assert_eq!(a.snr40_db.to_bits(), b.snr40_db.to_bits());
        }
    }

    #[test]
    fn coarse_table_has_larger_error_than_fine_table() {
        let e = LinkQualityEstimator::default();
        let fine = table();
        let coarse = GoodputTable::build(e, -12.0, 48.0, 1.0);
        assert!(coarse.max_check_error_bps() > fine.max_check_error_bps());
    }

    #[test]
    #[should_panic(expected = "SNR step must be positive")]
    fn zero_step_panics() {
        GoodputTable::build(LinkQualityEstimator::default(), 0.0, 10.0, 0.0);
    }
}
