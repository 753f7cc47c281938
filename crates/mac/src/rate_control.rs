//! Auto-rate modelling: MCS and MIMO-mode selection.
//!
//! The paper's cards run "a proprietary algorithm \[that\] not only adjusts
//! the rates in response to packet successes/failures but also picks the
//! best mode of operation (SDM or STBC) based on the channel quality". We
//! model that behaviour as expected-goodput maximization over the MCS ×
//! mode grid (via `acorn-phy`'s estimator) with optional switching
//! hysteresis, plus the exhaustive fixed-rate search used for Fig. 6(b).

use acorn_phy::estimator::{LinkQualityEstimator, RatePoint};
use acorn_phy::{ChannelWidth, McsIndex};

/// A stateful rate controller for one link.
#[derive(Debug, Clone)]
pub struct RateController {
    /// The underlying goodput-prediction estimator.
    pub estimator: LinkQualityEstimator,
    /// Minimum relative goodput improvement required to leave the current
    /// operating point (suppresses flapping between adjacent MCSs when the
    /// SNR sits on a boundary).
    pub hysteresis: f64,
    current: Option<RatePoint>,
}

impl RateController {
    /// Creates a controller with 5 % switching hysteresis.
    pub fn new(estimator: LinkQualityEstimator) -> RateController {
        RateController {
            estimator,
            hysteresis: 0.05,
            current: None,
        }
    }

    /// Selects the operating point for the given link SNR and width.
    pub fn select(&mut self, snr_db: f64, width: ChannelWidth) -> RatePoint {
        let best = self.estimator.best_rate_point(snr_db, width);
        let chosen = match self.current {
            Some(cur) if cur.mcs != best.mcs || cur.mode != best.mode => {
                // Re-evaluate the current point at today's SNR before
                // deciding whether the switch clears the hysteresis bar.
                let cur_now = self.evaluate(cur.mcs, snr_db, width);
                if best.goodput_bps > (1.0 + self.hysteresis) * cur_now.goodput_bps {
                    best
                } else {
                    cur_now
                }
            }
            Some(cur) => self.evaluate(cur.mcs, snr_db, width),
            None => best,
        };
        self.current = Some(chosen);
        chosen
    }

    /// Clears controller state (e.g. after a channel switch).
    pub fn reset(&mut self) {
        self.current = None;
    }

    /// Evaluates a specific MCS at an SNR/width (mode implied by stream
    /// count, as the hardware does) under the same error model `select`'s
    /// search uses.
    pub fn evaluate(&self, mcs: McsIndex, snr_db: f64, width: ChannelWidth) -> RatePoint {
        self.estimator.rate_point_at(mcs, snr_db, width)
    }
}

/// Exhaustive fixed-rate search (the Fig. 6(b) methodology): "for every
/// link on our testbed, we find through exhaustive search the MCS which
/// gives the highest (UDP) throughput with and without CB, considering
/// both modes of 802.11n operations (SDM/STBC)". Returns the best MCS for
/// each width.
pub fn optimal_mcs_pair(estimator: &LinkQualityEstimator, snr20_db: f64) -> (McsIndex, McsIndex) {
    let est = estimator.estimate(snr20_db, ChannelWidth::Ht20);
    (est.best20.mcs, est.best40.mcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_phy::MimoMode;

    fn ctl() -> RateController {
        RateController::new(LinkQualityEstimator::default())
    }

    #[test]
    fn first_selection_is_the_estimator_optimum() {
        let mut c = ctl();
        let sel = c.select(25.0, ChannelWidth::Ht20);
        let best = LinkQualityEstimator::default().best_rate_point(25.0, ChannelWidth::Ht20);
        assert_eq!(sel.mcs, best.mcs);
        assert_eq!(sel.mode, best.mode);
    }

    #[test]
    fn hysteresis_suppresses_marginal_switches() {
        let mut c = ctl();
        c.hysteresis = 0.5; // very sticky, to make the effect observable
        let first = c.select(20.0, ChannelWidth::Ht20);
        // A tiny SNR wiggle must not change the operating point.
        let second = c.select(20.3, ChannelWidth::Ht20);
        assert_eq!(first.mcs, second.mcs);
    }

    #[test]
    fn large_snr_change_forces_a_switch() {
        let mut c = ctl();
        let low = c.select(3.0, ChannelWidth::Ht20);
        let high = c.select(35.0, ChannelWidth::Ht20);
        assert!(high.mcs.value() > low.mcs.value());
        assert!(high.goodput_bps > low.goodput_bps);
    }

    #[test]
    fn mode_follows_link_quality() {
        // Poor link → STBC; strong link → SDM (the paper's vendor-rate
        // behaviour).
        let mut c = ctl();
        assert_eq!(c.select(2.0, ChannelWidth::Ht20).mode, MimoMode::Stbc);
        c.reset();
        assert_eq!(c.select(35.0, ChannelWidth::Ht20).mode, MimoMode::Sdm);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = ctl();
        let high = c.select(35.0, ChannelWidth::Ht20);
        c.reset();
        let low = c.select(2.0, ChannelWidth::Ht20);
        assert!(low.mcs.value() < high.mcs.value());
    }

    #[test]
    fn optimal_mcs_40_not_more_aggressive_than_20() {
        // Fig. 6(b)'s diagonal: the 40 MHz optimum is almost always at or
        // below the 20 MHz optimum.
        let e = LinkQualityEstimator::default();
        for snr in [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 30.0] {
            let (m20, m40) = optimal_mcs_pair(&e, snr);
            assert!(
                m40.value() <= m20.value(),
                "snr {snr}: 40 MHz MCS {} > 20 MHz MCS {}",
                m40.value(),
                m20.value()
            );
        }
    }

    #[test]
    fn evaluate_rescores_on_the_fading_curves_select_searched() {
        // Under a fading estimator the current MCS must be re-scored on the
        // same faded curves `best_rate_point` searched, or a second
        // `select` at an unchanged SNR moves the reported point.
        let e = LinkQualityEstimator {
            fading_sigma_db: 3.0,
            ..LinkQualityEstimator::default()
        };
        let mut c = RateController::new(e);
        for i in 0..60 {
            let snr = -5.0 + 0.75 * i as f64;
            let best = e.best_rate_point(snr, ChannelWidth::Ht20);
            assert_eq!(
                c.evaluate(best.mcs, snr, ChannelWidth::Ht20),
                best,
                "snr {snr}"
            );
            c.reset();
            let first = c.select(snr, ChannelWidth::Ht20);
            assert_eq!(c.select(snr, ChannelWidth::Ht20), first, "snr {snr}");
        }
    }

    #[test]
    fn evaluate_specific_mcs_matches_table_rate() {
        let c = ctl();
        let p = c.evaluate(McsIndex::new(7).unwrap(), 40.0, ChannelWidth::Ht20);
        // At 40 dB the PER is ~0, so goodput ≈ nominal 65 Mb/s.
        assert!((p.goodput_bps - 65e6).abs() < 1e5);
    }
}
