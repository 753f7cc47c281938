//! ACORN's link-quality estimator (§4.2 of the paper).
//!
//! To decide channel widths, an AP must predict how each client link would
//! behave on a channel of the *other* width without actually switching to
//! it. The paper's estimator does this in three steps, reproduced here
//! exactly:
//!
//! 1. **SNR calibration** — "When we change the width (20/40 MHz), there is
//!    a 3 dB change in the SNR; this processing is performed by a SNR
//!    calibration module" ([`LinkQualityEstimator::calibrate_snr`]).
//! 2. **BER estimation** — "a BER estimation module calculates the
//!    theoretical coded BER (from \[19\])" (via `Mcs::coded_ber`).
//! 3. **PER estimation** — Eq. 6, `PER = 1 − (1 − BER)^L` under the
//!    independent-bit-error assumption (`Mcs::per`, applied to the coded
//!    BER step 2 already computed).
//!
//! "Note here that ACORN does not require the exact BER or PER values; it
//! only needs a coarse estimate of the link quality i.e., a reasonable
//! classification of good and poor links" — that classification is
//! [`LinkClass`], derived by comparing the link's best achievable goodput
//! with and without bonding.

use crate::coding::{per_from_ber_bytes, Crossover};
use crate::link::cb_snr_shift_db;
use crate::mcs::{Mcs, McsIndex, MimoMode};
use crate::ofdm::{ChannelWidth, GuardInterval};

/// Coarse link classification used by ACORN's association and allocation
/// modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A link that benefits from channel bonding (its best 40 MHz goodput
    /// exceeds its best 20 MHz goodput).
    Good,
    /// A link that bonding hurts or barely helps — the kind that drags a
    /// bonded cell down via the 802.11 performance anomaly.
    Poor,
}

/// One operating point chosen by exhaustive MCS/mode search: the best
/// (MCS, MIMO mode) at a given SNR and width, with its predicted error
/// rates and goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Chosen MCS index.
    pub mcs: McsIndex,
    /// Chosen MIMO mode (STBC for reliability, SDM for rate).
    pub mode: MimoMode,
    /// Predicted post-FEC bit error rate.
    pub coded_ber: f64,
    /// Predicted packet error rate (Eq. 6).
    pub per: f64,
    /// Predicted goodput `(1 − PER) · R` in bits/s.
    pub goodput_bps: f64,
}

/// Full estimator output for one link: the predicted operating point on
/// both widths plus the good/poor classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQualityEstimate {
    /// Calibrated per-subcarrier SNR on a 20 MHz channel (dB).
    pub snr20_db: f64,
    /// Calibrated per-subcarrier SNR on a bonded 40 MHz channel (dB).
    pub snr40_db: f64,
    /// Best predicted operating point on 20 MHz.
    pub best20: RatePoint,
    /// Best predicted operating point on 40 MHz.
    pub best40: RatePoint,
    /// Good/poor classification (does bonding help this link?).
    pub class: LinkClass,
}

impl LinkQualityEstimate {
    /// The width that maximizes this link's predicted goodput.
    pub fn preferred_width(&self) -> ChannelWidth {
        if self.best40.goodput_bps > self.best20.goodput_bps {
            ChannelWidth::Ht40
        } else {
            ChannelWidth::Ht20
        }
    }

    /// Predicted goodput (bits/s) at a given width.
    pub fn goodput_bps(&self, width: ChannelWidth) -> f64 {
        match width {
            ChannelWidth::Ht20 => self.best20.goodput_bps,
            ChannelWidth::Ht40 => self.best40.goodput_bps,
        }
    }

    /// Predicted best operating point at a given width.
    pub fn rate_point(&self, width: ChannelWidth) -> RatePoint {
        match width {
            ChannelWidth::Ht20 => self.best20,
            ChannelWidth::Ht40 => self.best40,
        }
    }
}

/// The estimator configuration: packet size used for PER prediction and the
/// guard interval in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQualityEstimator {
    /// Packet length in bytes assumed by the PER model (the paper uses
    /// 1500-byte packets throughout).
    pub packet_bytes: u32,
    /// Guard interval used for nominal rates.
    pub gi: GuardInterval,
    /// Minimum 40 MHz / 20 MHz goodput ratio for a link to classify as
    /// [`LinkClass::Good`]. ACORN assigns 20 MHz channels to APs that "do
    /// not achieve significant gains with CB" — marginal gains do not
    /// justify occupying twice the spectrum, so the default requires a 20 %
    /// improvement.
    pub cb_benefit_threshold: f64,
    /// SNR spread (dB) of the fading-averaged PER model
    /// ([`crate::fading`]); 0 (the default) uses the crisp AWGN curves.
    /// Around 3 dB reproduces testbed-like transition-band widths.
    pub fading_sigma_db: f64,
}

impl Default for LinkQualityEstimator {
    fn default() -> Self {
        LinkQualityEstimator {
            packet_bytes: 1500,
            gi: GuardInterval::Long,
            cb_benefit_threshold: 1.2,
            fading_sigma_db: 0.0,
        }
    }
}

impl LinkQualityEstimator {
    /// SNR calibration (§4.2): translate an SNR measured at `from` width to
    /// the SNR the same link would see at `to` width (±3 dB, or unchanged
    /// when the widths match).
    pub fn calibrate_snr(&self, snr_db: f64, from: ChannelWidth, to: ChannelWidth) -> f64 {
        match (from, to) {
            (ChannelWidth::Ht20, ChannelWidth::Ht40) => snr_db + cb_snr_shift_db(),
            (ChannelWidth::Ht40, ChannelWidth::Ht20) => snr_db - cb_snr_shift_db(),
            _ => snr_db,
        }
    }

    /// The (coded BER, PER) prediction for one MCS at a mode-effective
    /// SNR — the single error model both
    /// [`best_rate_point`](LinkQualityEstimator::best_rate_point) and the
    /// memoized `GoodputTable` build evaluate (through `ErrorRatesAt`,
    /// which shares the crisp branch's channel crossover between MCSs),
    /// so the exact and tabulated paths always share the same error
    /// model (crisp AWGN or fading-averaged). The crisp PER is Eq. 6 on
    /// the coded BER just computed, so the union bound runs once per call.
    pub fn error_rates(&self, mcs: &Mcs, eff_snr_db: f64) -> (f64, f64) {
        if self.fading_sigma_db > 0.0 {
            (
                crate::fading::faded_coded_ber(mcs, eff_snr_db, self.fading_sigma_db),
                crate::fading::faded_per(mcs, eff_snr_db, self.fading_sigma_db, self.packet_bytes),
            )
        } else {
            self.crisp_error_rates(Crossover::new(mcs.modulation.ber_awgn(eff_snr_db)), mcs)
        }
    }

    /// The crisp branch of [`error_rates`](LinkQualityEstimator::error_rates)
    /// on a channel crossover already taken: the union bound at the MCS's
    /// code rate, and Eq. 6 on it.
    fn crisp_error_rates(&self, channel: Crossover, mcs: &Mcs) -> (f64, f64) {
        let coded_ber = channel.coded_ber(mcs.code_rate);
        (coded_ber, per_from_ber_bytes(coded_ber, self.packet_bytes))
    }

    /// One MCS scored at a link SNR and width: the mode its stream count
    /// implies (STBC for MCS 0–7, SDM for 8–15, as the hardware does), its
    /// error rates under this estimator's model, and its expected goodput
    /// `(1 − PER) · R`.
    pub fn rate_point_at(&self, idx: McsIndex, snr_db: f64, width: ChannelWidth) -> RatePoint {
        let mcs = idx.mcs();
        let rate_bps = mcs.rate_bps(width, self.gi);
        self.score(&mut ErrorRatesAt::new(self, snr_db), &mcs, rate_bps)
    }

    /// [`rate_point_at`](LinkQualityEstimator::rate_point_at) of `mcs` at
    /// nominal rate `rate_bps`, with the error rates drawn from `rates`,
    /// which a search shares across MCSs.
    fn score(&self, rates: &mut ErrorRatesAt<'_>, mcs: &Mcs, rate_bps: f64) -> RatePoint {
        let (coded_ber, per) = rates.of(mcs);
        RatePoint {
            mcs: mcs.index,
            mode: mode_of(mcs),
            coded_ber,
            per,
            goodput_bps: (1.0 - per) * rate_bps,
        }
    }

    /// Exhaustive best-(MCS, mode) search at a given calibrated SNR and
    /// width — the model of the testbed's auto-rate behaviour used for
    /// prediction: maximize expected goodput `(1 − PER) · R` over MCS 0–7
    /// with STBC and MCS 8–15 with SDM. Of equal goodputs the lowest MCS
    /// index wins, which is what an ascending scan that replaces its
    /// incumbent only on a strictly higher goodput returns.
    ///
    /// MCSs are visited in descending nominal rate `R`
    /// (`McsIndex::by_descending_rate`). A candidate replaces the
    /// incumbent on a higher goodput, or an equal one at a lower index;
    /// the comparison is written as "unless the incumbent wins", so a NaN
    /// SNR, whose every goodput is NaN, ends on MCS 0 as the ascending
    /// scan does. An MCS whose `R` is below the incumbent's goodput, or
    /// equal to it at a higher index, could not win: PER lies in `[0, 1]`
    /// on both the crisp and the faded branch, so its goodput is at most
    /// `R`. Every MCS after it has a lower rate, or the same rate at a
    /// higher index, so the scan stops there: once one MCS is scored
    /// clean, at mid and high SNR, no slower one is looked at. The MCSs
    /// of one mode and modulation share their channel crossover
    /// (`ErrorRatesAt`).
    pub fn best_rate_point(&self, snr_db: f64, width: ChannelWidth) -> RatePoint {
        let mut rates = ErrorRatesAt::new(self, snr_db);
        let top = McsIndex::MAX.mcs();
        let mut best = self.score(&mut rates, &top, top.rate_bps(width, self.gi));
        for idx in McsIndex::by_descending_rate().skip(1) {
            let mcs = idx.mcs();
            let rate = mcs.rate_bps(width, self.gi);
            if rate < best.goodput_bps || (rate == best.goodput_bps && idx > best.mcs) {
                break;
            }
            let candidate = self.score(&mut rates, &mcs, rate);
            let incumbent_wins = best.goodput_bps > candidate.goodput_bps
                || (best.goodput_bps == candidate.goodput_bps && best.mcs < idx);
            if !incumbent_wins {
                best = candidate;
            }
        }
        best
    }

    /// Runs the full §4.2 pipeline: calibrate the measured SNR to both
    /// widths, predict the best operating point on each, and classify the
    /// link.
    pub fn estimate(&self, measured_snr_db: f64, measured_at: ChannelWidth) -> LinkQualityEstimate {
        let snr20 = self.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht20);
        let snr40 = self.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht40);
        let best20 = self.best_rate_point(snr20, ChannelWidth::Ht20);
        let best40 = self.best_rate_point(snr40, ChannelWidth::Ht40);
        let class = if best40.goodput_bps > self.cb_benefit_threshold * best20.goodput_bps {
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

    /// Batched [`estimate`](LinkQualityEstimator::estimate) over a
    /// measurement grid — the shape the AP-side width allocator and the
    /// Monte-Carlo calibration harness consume: one call per cell (or per
    /// sweep), not one per link. `estimates[i]` equals
    /// `self.estimate(measurements[i].0, measurements[i].1)` exactly.
    pub fn estimate_grid(&self, measurements: &[(f64, ChannelWidth)]) -> Vec<LinkQualityEstimate> {
        measurements
            .iter()
            .map(|&(snr_db, at)| self.estimate(snr_db, at))
            .collect()
    }
}

/// The MIMO mode an MCS's stream count implies: STBC for one stream
/// (MCS 0–7), SDM for two (MCS 8–15), as the hardware does.
pub(crate) fn mode_of(mcs: &Mcs) -> MimoMode {
    if mcs.n_ss == 1 {
        MimoMode::Stbc
    } else {
        MimoMode::Sdm
    }
}

/// The error rates of MCSs at one link SNR, each MCS at its mode's
/// effective SNR, bit for bit
/// [`error_rates`](LinkQualityEstimator::error_rates). On the crisp
/// branch the MCSs of one mode and modulation see one channel BER, so
/// its [`Crossover`] (one `erfc`, `ln p` and `ln(1 − p)`) is taken at
/// most once per (modulation, mode) and only the union bound runs per
/// code rate. One lives on the stack of one search or one table bin.
pub(crate) struct ErrorRatesAt<'a> {
    estimator: &'a LinkQualityEstimator,
    snr_db: f64,
    /// Crossover per `mode as usize * 4 + modulation as usize`.
    crossovers: [Option<Crossover>; 8],
}

impl<'a> ErrorRatesAt<'a> {
    /// No crossover taken yet at link SNR `snr_db`.
    pub(crate) fn new(estimator: &'a LinkQualityEstimator, snr_db: f64) -> ErrorRatesAt<'a> {
        ErrorRatesAt {
            estimator,
            snr_db,
            crossovers: [None; 8],
        }
    }

    /// `(coded BER, PER)` of `mcs` at this link SNR.
    pub(crate) fn of(&mut self, mcs: &Mcs) -> (f64, f64) {
        let e = self.estimator;
        let mode = mode_of(mcs);
        let eff_snr_db = mode.effective_snr_db(self.snr_db);
        if e.fading_sigma_db > 0.0 {
            return e.error_rates(mcs, eff_snr_db);
        }
        let slot = &mut self.crossovers[mode as usize * 4 + mcs.modulation as usize];
        let channel =
            *slot.get_or_insert_with(|| Crossover::new(mcs.modulation.ber_awgn(eff_snr_db)));
        e.crisp_error_rates(channel, mcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_symmetric() {
        let e = LinkQualityEstimator::default();
        let snr = 13.7;
        let to40 = e.calibrate_snr(snr, ChannelWidth::Ht20, ChannelWidth::Ht40);
        assert!((to40 - (snr - 3.0103)).abs() < 1e-3);
        let back = e.calibrate_snr(to40, ChannelWidth::Ht40, ChannelWidth::Ht20);
        assert!((back - snr).abs() < 1e-9);
        assert_eq!(
            e.calibrate_snr(snr, ChannelWidth::Ht20, ChannelWidth::Ht20),
            snr
        );
    }

    #[test]
    fn strong_links_classify_good() {
        let e = LinkQualityEstimator::default();
        let est = e.estimate(35.0, ChannelWidth::Ht20);
        assert_eq!(est.class, LinkClass::Good);
        assert_eq!(est.preferred_width(), ChannelWidth::Ht40);
        // A clean bonded link should be close to doubling throughput, but
        // per §3 it never quite doubles relative to nominal expectations
        // when error rates are non-zero at the chosen MCS.
        assert!(est.best40.goodput_bps > 1.5 * est.best20.goodput_bps);
    }

    #[test]
    fn weak_links_classify_poor() {
        let e = LinkQualityEstimator::default();
        // Around the σ-transition SNRs of Table 1, bonding gains are
        // marginal at best — the link classifies Poor.
        let est = e.estimate(3.0, ChannelWidth::Ht20);
        assert_eq!(est.class, LinkClass::Poor);
        // At the bottom of the MCS ladder there is no lower rate to retreat
        // to, so the bonded channel loses outright and even the raw goodput
        // preference is 20 MHz.
        let very_weak = e.estimate(0.0, ChannelWidth::Ht20);
        assert_eq!(very_weak.class, LinkClass::Poor);
        assert_eq!(very_weak.preferred_width(), ChannelWidth::Ht20);
    }

    #[test]
    fn best_rate_point_uses_low_mcs_at_low_snr() {
        let e = LinkQualityEstimator::default();
        let low = e.best_rate_point(2.0, ChannelWidth::Ht20);
        let high = e.best_rate_point(35.0, ChannelWidth::Ht20);
        assert!(low.mcs.value() < high.mcs.value());
        assert_eq!(high.mode, MimoMode::Sdm);
        assert_eq!(low.mode, MimoMode::Stbc);
    }

    #[test]
    fn optimal_mcs_less_aggressive_on_bonded_channel() {
        // Fig. 6(b): the optimal MCS with 40 MHz is almost always ≤ the one
        // with 20 MHz (because of the 3 dB SNR loss).
        let e = LinkQualityEstimator::default();
        for snr20 in [5.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            let est = e.estimate(snr20, ChannelWidth::Ht20);
            assert!(
                est.best40.mcs.value() <= est.best20.mcs.value(),
                "snr {snr20}: 40MHz MCS {} > 20MHz MCS {}",
                est.best40.mcs.value(),
                est.best20.mcs.value()
            );
        }
    }

    #[test]
    fn goodput_never_doubles_with_cb() {
        // §3.2: "the throughput observed with CB is almost always less than
        // double of that without CB". Allow the 108/104 nominal-rate edge.
        let e = LinkQualityEstimator::default();
        for snr in (-5..40).step_by(2) {
            let est = e.estimate(snr as f64, ChannelWidth::Ht20);
            let ratio = est.best40.goodput_bps / est.best20.goodput_bps.max(1.0);
            assert!(ratio < 2.1, "snr {snr}: ratio {ratio}");
        }
    }

    #[test]
    fn estimate_monotone_in_snr() {
        let e = LinkQualityEstimator::default();
        let mut prev20 = 0.0;
        for snr in (-10..=40).step_by(1) {
            let est = e.estimate(snr as f64, ChannelWidth::Ht20);
            assert!(
                est.best20.goodput_bps + 1.0 >= prev20,
                "goodput dropped at snr {snr}"
            );
            prev20 = est.best20.goodput_bps;
        }
    }

    #[test]
    fn measured_at_40_maps_back_to_20() {
        let e = LinkQualityEstimator::default();
        let a = e.estimate(20.0, ChannelWidth::Ht20);
        let b = e.estimate(20.0 + cb_snr_shift_db(), ChannelWidth::Ht40);
        assert!((a.snr20_db - b.snr20_db).abs() < 1e-9);
        assert!((a.snr40_db - b.snr40_db).abs() < 1e-9);
    }

    use crate::link::cb_snr_shift_db;

    #[test]
    fn estimate_grid_matches_pointwise_estimates() {
        let e = LinkQualityEstimator::default();
        let grid: Vec<(f64, ChannelWidth)> = (-5..=35)
            .step_by(5)
            .flat_map(|s| {
                [
                    (s as f64, ChannelWidth::Ht20),
                    (s as f64, ChannelWidth::Ht40),
                ]
            })
            .collect();
        let batched = e.estimate_grid(&grid);
        assert_eq!(batched.len(), grid.len());
        for (i, &(snr, at)) in grid.iter().enumerate() {
            assert_eq!(batched[i], e.estimate(snr, at), "cell {i}");
        }
        assert!(e.estimate_grid(&[]).is_empty());
    }

    #[test]
    fn rate_point_accessor_matches_fields() {
        let e = LinkQualityEstimator::default();
        let est = e.estimate(18.0, ChannelWidth::Ht20);
        assert_eq!(est.rate_point(ChannelWidth::Ht20), est.best20);
        assert_eq!(est.rate_point(ChannelWidth::Ht40), est.best40);
        assert_eq!(est.goodput_bps(ChannelWidth::Ht40), est.best40.goodput_bps);
    }
}
