//! Per-client link statistics tracking — the driver-side bookkeeping of
//! §5.1.
//!
//! "We keep track of the SNR, the nominal rate and the association time
//! per client by using dedicated functions implemented in our card's
//! driver." Raw per-frame SNR readings are noisy; the delays ACORN
//! advertises in beacons should reflect the *link*, not the last frame.
//! [`ClientTracker`] provides the standard treatment: EWMA smoothing
//! (α = 0.2) with median-of-recent outlier rejection (10 dB off the median
//! of the last 8 samples), staleness detection (5 s without a sample), and
//! the association-time clock.

use crate::error::ControlError;
use std::collections::VecDeque;

/// EWMA weight of a new (accepted) sample.
const ALPHA: f64 = 0.2;
/// Samples deviating more than this from the median of the recent window
/// are rejected as outliers (dB).
const OUTLIER_DB: f64 = 10.0;
/// Recent-sample window used for the outlier median.
const WINDOW: usize = 8;
/// A link with no samples for this long is stale and should be re-probed
/// before its estimate is trusted (s).
const STALENESS_S: f64 = 5.0;

/// Smoothed link state for one client.
#[derive(Debug, Clone)]
pub struct ClientTracker {
    associated_at_s: f64,
    ewma_snr_db: Option<f64>,
    recent: VecDeque<f64>,
    last_sample_s: f64,
    samples: u64,
    rejected: u64,
}

impl ClientTracker {
    /// Starts tracking a client that associated at `now_s`.
    pub fn new(now_s: f64) -> ClientTracker {
        ClientTracker {
            associated_at_s: now_s,
            ewma_snr_db: None,
            recent: VecDeque::with_capacity(WINDOW),
            last_sample_s: now_s,
            samples: 0,
            rejected: 0,
        }
    }

    /// Feeds one per-frame SNR reading. Returns `Ok(true)` if the sample
    /// was accepted, `Ok(false)` if it was rejected as an outlier, and
    /// `Err(ControlError::NonFiniteMeasurement)` for NaN/±∞ readings — a
    /// faulty driver report must never reach the EWMA or the median sort.
    pub fn observe_snr(&mut self, snr_db: f64, now_s: f64) -> Result<bool, ControlError> {
        if !snr_db.is_finite() {
            return Err(ControlError::NonFiniteMeasurement(snr_db));
        }
        self.samples += 1;
        // Outlier test against the median of the recent window (only once
        // the window has some substance; early samples are all accepted).
        if self.recent.len() > WINDOW / 2 {
            let mut sorted: Vec<f64> = self.recent.iter().copied().collect();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            if (snr_db - median).abs() > OUTLIER_DB {
                self.rejected += 1;
                return Ok(false);
            }
        }
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(snr_db);
        self.ewma_snr_db = Some(match self.ewma_snr_db {
            Some(prev) => prev + ALPHA * (snr_db - prev),
            None => snr_db,
        });
        self.last_sample_s = now_s;
        Ok(true)
    }

    /// The smoothed SNR estimate, if any sample was ever accepted.
    pub fn snr_db(&self) -> Option<f64> {
        self.ewma_snr_db
    }

    /// The staleness-gated estimate the *controller boundary* must use: a
    /// link with no fresh samples inside `STALENESS_S` yields `None`, so
    /// its advertised delay degrades to ∞ (`u32::MAX` on the wire)
    /// instead of a confidently-wrong last EWMA value.
    pub fn fresh_snr_db(&self, now_s: f64) -> Option<f64> {
        if self.is_stale(now_s) {
            None
        } else {
            self.ewma_snr_db
        }
    }

    /// Whether the estimate is stale at `now_s`.
    pub fn is_stale(&self, now_s: f64) -> bool {
        self.ewma_snr_db.is_none() || now_s - self.last_sample_s > STALENESS_S
    }

    /// Association duration so far — the quantity Fig. 9's trace records.
    pub fn association_time_s(&self, now_s: f64) -> f64 {
        (now_s - self.associated_at_s).max(0.0)
    }

    /// (accepted, rejected) sample counts.
    pub fn sample_counts(&self) -> (u64, u64) {
        (self.samples - self.rejected, self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> ClientTracker {
        ClientTracker::new(100.0)
    }

    #[test]
    fn first_sample_seeds_the_ewma() {
        let mut t = tracker();
        assert_eq!(t.snr_db(), None);
        assert!(t.observe_snr(17.0, 100.1).unwrap());
        assert_eq!(t.snr_db(), Some(17.0));
    }

    #[test]
    fn ewma_converges_to_a_level_shift() {
        let mut t = tracker();
        for i in 0..50 {
            t.observe_snr(10.0, 100.0 + i as f64).unwrap();
        }
        assert!((t.snr_db().unwrap() - 10.0).abs() < 1e-6);
        // Gradual 5 dB drop (within the outlier gate) is tracked.
        for i in 0..80 {
            t.observe_snr(5.0, 200.0 + i as f64).unwrap();
        }
        assert!((t.snr_db().unwrap() - 5.0).abs() < 0.05);
    }

    #[test]
    fn spikes_are_rejected_but_persistent_changes_accepted() {
        let mut t = tracker();
        for i in 0..10 {
            t.observe_snr(20.0, 100.0 + i as f64).unwrap();
        }
        // A single 30 dB spike: rejected, estimate unmoved.
        assert!(!t.observe_snr(50.0, 111.0).unwrap());
        assert!((t.snr_db().unwrap() - 20.0).abs() < 0.1);
        let (ok, bad) = t.sample_counts();
        assert_eq!(bad, 1);
        assert_eq!(ok, 10);
    }

    #[test]
    fn smoothing_beats_raw_samples_under_noise() {
        // Deterministic zig-zag noise around 15 dB: the EWMA's error must
        // be far below the raw sample error.
        let mut t = tracker();
        let mut worst_raw: f64 = 0.0;
        for i in 0..200 {
            let noise = if i % 2 == 0 { 4.0 } else { -4.0 };
            let sample = 15.0 + noise;
            worst_raw = worst_raw.max((sample - 15.0f64).abs());
            t.observe_snr(sample, 100.0 + i as f64).unwrap();
        }
        let err = (t.snr_db().unwrap() - 15.0).abs();
        assert!(err < 1.0, "ewma err {err}");
        assert!(worst_raw >= 4.0);
    }

    #[test]
    fn staleness_detection() {
        let mut t = tracker();
        assert!(t.is_stale(100.0), "no samples yet");
        t.observe_snr(12.0, 100.0).unwrap();
        assert!(!t.is_stale(104.0));
        assert!(t.is_stale(106.0));
    }

    #[test]
    fn stale_links_yield_no_fresh_estimate() {
        // The satellite regression: past the staleness horizon the
        // gated accessor must return None (→ ∞ delay on the wire), while
        // the raw EWMA is still available for diagnostics.
        let mut t = tracker();
        t.observe_snr(12.0, 100.0).unwrap();
        assert_eq!(t.fresh_snr_db(104.0), Some(12.0));
        assert_eq!(t.fresh_snr_db(106.0), None, "stale link must gate out");
        assert_eq!(t.snr_db(), Some(12.0), "raw estimate still readable");
        // A fresh sample restores the gated estimate.
        t.observe_snr(13.0, 200.0).unwrap();
        assert!(t.fresh_snr_db(201.0).is_some());
    }

    #[test]
    fn non_finite_measurements_are_typed_errors() {
        let mut t = tracker();
        for i in 0..5 {
            t.observe_snr(20.0, 100.0 + i as f64).unwrap();
        }
        let before = t.snr_db();
        let (ok_before, _) = t.sample_counts();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match t.observe_snr(bad, 110.0) {
                Err(ControlError::NonFiniteMeasurement(_)) => {}
                other => panic!("expected NonFiniteMeasurement, got {other:?}"),
            }
        }
        assert_eq!(t.snr_db(), before, "estimate unmoved by faulty reports");
        assert_eq!(t.sample_counts().0, ok_before, "counts unmoved");
        // Last *accepted* sample was at t = 104: the faulty reports at
        // t = 110 must not have refreshed liveness.
        assert!(
            t.is_stale(111.0),
            "faulty reports must not refresh liveness"
        );
    }

    #[test]
    fn association_clock() {
        let t = tracker();
        assert_eq!(t.association_time_s(100.0), 0.0);
        assert_eq!(t.association_time_s(1900.0), 1800.0);
    }
}
