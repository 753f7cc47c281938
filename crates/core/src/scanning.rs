//! Per-channel scanning — the extension §4.2 sketches.
//!
//! ACORN's base design assumes "the quality of a link does not exhibit
//! significant variations ... on different channels of the same width"
//! (validated in Fig. 8). The paper adds: "ACORN can easily be modified,
//! such that each AP scans (one at a time) all the available channels and
//! gets more accurate information regarding the link quality to its
//! clients. However, this would add more complexity and increase the
//! convergence time of the system."
//!
//! This module implements that modification:
//!
//! * [`ChannelSounding`] — the per-channel measurement source: each
//!   (AP, client, channel) triple gets an SNR deviation from the link's
//!   wideband reference.
//! * [`ScanningModel`] — a [`ThroughputModel`] that evaluates every
//!   candidate assignment at the *scanned* per-channel qualities (bonded
//!   channels average their two members' deviations), so Algorithm 2 can
//!   steer around frequency-selective notches.
//! * [`scan_overhead_s`] — the convergence-time cost the paper warns
//!   about, so deployments can weigh accuracy against downtime.

use crate::model::{NetworkModel, ThroughputModel};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::access_share;
use acorn_topology::{ApId, Channel20, ChannelAssignment};

/// A source of per-channel link-quality deviations.
pub trait ChannelSounding {
    /// SNR deviation (dB) of link (ap, client) on a specific 20 MHz
    /// channel, relative to the link's wideband (channel-agnostic) SNR.
    fn offset_db(&self, ap: usize, client: usize, channel: Channel20) -> f64;
}

/// No per-channel structure: every channel behaves like the wideband
/// reference (the Fig. 8 regime). [`ScanningModel`] over this sounding is
/// exactly the base [`NetworkModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatSounding;

impl ChannelSounding for FlatSounding {
    fn offset_db(&self, _ap: usize, _client: usize, _channel: Channel20) -> f64 {
        0.0
    }
}

/// Deterministic per-(link, channel) deviations: zero-mean, `sigma_db`
/// spread, frozen by a hash — a stand-in for real scan measurements on a
/// mildly frequency-selective plant.
#[derive(Debug, Clone, Copy)]
pub struct HashSounding {
    /// Standard deviation of the per-channel deviation (dB).
    pub sigma_db: f64,
    /// Seed mixed into the hash.
    pub seed: u64,
}

impl ChannelSounding for HashSounding {
    fn offset_db(&self, ap: usize, client: usize, channel: Channel20) -> f64 {
        let mut x = self.seed
            ^ (ap as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (client as u64 + 1).wrapping_mul(0xBF58476D1CE4E5B9)
            ^ (channel.0 as u64 + 1).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        // Two uniforms → one standard normal (Box–Muller, cos branch).
        let u1 = ((x >> 11) as f64 / (1u64 << 53) as f64).max(1e-18);
        let u2 = (x & 0xFFFF_FFFF) as f64 / 4_294_967_296.0;
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        g * self.sigma_db
    }
}

/// A throughput model that folds scan measurements into the prediction.
///
/// Like [`NetworkModel`], memoizes the `M = 1` cell throughput — here per
/// (AP, concrete assignment), since with scanning the quality depends on
/// *which* channels are occupied, not just the width. The cache can't be
/// precomputed densely (the key space is every concrete assignment), so
/// it stays lazy behind a `Mutex` — keeping the model `Sync` for the
/// parallel evaluation engine.
#[derive(Debug)]
pub struct ScanningModel<S: ChannelSounding> {
    /// The base (wideband) model: graph, cells, estimator.
    pub base: NetworkModel,
    /// The scan measurements.
    pub sounding: S,
    cell_cache: std::sync::Mutex<std::collections::HashMap<(usize, ChannelAssignment), f64>>,
}

impl<S: ChannelSounding> ScanningModel<S> {
    /// Creates a scanning model over a base model and a sounding source.
    pub fn new(base: NetworkModel, sounding: S) -> ScanningModel<S> {
        ScanningModel {
            base,
            sounding,
            cell_cache: std::sync::Mutex::new(std::collections::HashMap::new()),
        }
    }
}

impl<S: ChannelSounding> ScanningModel<S> {
    /// Effective SNR deviation of a link under an assignment: the mean of
    /// the occupied channels' deviations (a bonded channel spans both).
    pub fn assignment_offset_db(&self, ap: usize, client: usize, a: ChannelAssignment) -> f64 {
        let occupied: Vec<Channel20> = a.occupied().collect();
        occupied
            .iter()
            .map(|&c| self.sounding.offset_db(ap, client, c))
            .sum::<f64>()
            / occupied.len() as f64
    }
}

impl<S: ChannelSounding> ThroughputModel for ScanningModel<S> {
    fn n_aps(&self) -> usize {
        self.base.graph.len()
    }

    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64 {
        let a = assignments[ap.0];
        let m = access_share(&self.base.graph, assignments, ap);
        // A panicked holder cannot corrupt this cache (values are written
        // atomically under the lock), so a poisoned mutex is recoverable:
        // take the inner guard rather than propagating the poison panic.
        if let Some(v) = self
            .cell_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(ap.0, a))
        {
            return m * v;
        }
        let width = a.width();
        let est = self.base.estimator();
        let links: Vec<ClientLink> = self.base.cells()[ap.0]
            .iter()
            .map(|c| {
                let snr = c.snr20_db + self.assignment_offset_db(ap.0, c.client, a);
                let e = est.estimate(snr, acorn_phy::ChannelWidth::Ht20);
                let p = e.rate_point(width);
                ClientLink {
                    rate_bps: p.mcs.mcs().rate_bps(width, est.gi),
                    per: p.per,
                }
            })
            .collect();
        let base = CellAirtime::new(&links, self.base.payload_bytes()).cell_throughput_bps(1.0);
        self.cell_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((ap.0, a), base);
        m * base
    }
}

/// The scan-time cost the paper warns about: each AP dwells
/// `dwell_s` on each of `n_channels` channels, one AP at a time (so
/// clients keep service from neighbours during each AP's scan).
pub fn scan_overhead_s(n_aps: usize, n_channels: usize, dwell_s: f64) -> f64 {
    n_aps as f64 * n_channels as f64 * dwell_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocate, AllocSpec, AllocationConfig};
    use crate::model::ClientSnr;
    use acorn_obs::NullSink;
    use acorn_topology::{ChannelPlan, InterferenceGraph};

    fn base(snrs: &[f64]) -> NetworkModel {
        let cells = snrs
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                vec![ClientSnr {
                    client: i,
                    snr20_db: s,
                }]
            })
            .collect();
        NetworkModel::new(InterferenceGraph::complete(snrs.len()), cells)
    }

    #[test]
    fn flat_sounding_equals_base_model() {
        let m = base(&[25.0, 8.0]);
        let s = ScanningModel::new(m.clone(), FlatSounding);
        let plan = ChannelPlan::restricted(4);
        for a in [
            vec![
                ChannelAssignment::Single(Channel20(0)),
                ChannelAssignment::Single(Channel20(1)),
            ],
            vec![
                ChannelAssignment::bonded(Channel20(0)).unwrap(),
                ChannelAssignment::Single(Channel20(2)),
            ],
        ] {
            assert!((m.total_bps(&a) - s.total_bps(&a)).abs() < 1e-6, "{a:?}");
            assert!(a.iter().all(|x| plan.contains(*x)));
        }
    }

    #[test]
    fn hash_sounding_is_deterministic_and_zero_mean() {
        let s = HashSounding {
            sigma_db: 2.0,
            seed: 9,
        };
        assert_eq!(
            s.offset_db(1, 2, Channel20(3)),
            s.offset_db(1, 2, Channel20(3))
        );
        assert_ne!(
            s.offset_db(1, 2, Channel20(3)),
            s.offset_db(1, 2, Channel20(4))
        );
        let mean: f64 = (0..2000)
            .map(|i| s.offset_db(i, i * 7, Channel20((i % 12) as u8)))
            .sum::<f64>()
            / 2000.0;
        assert!(mean.abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn bonded_offset_is_the_member_mean() {
        let s = ScanningModel::new(
            base(&[20.0]),
            HashSounding {
                sigma_db: 3.0,
                seed: 1,
            },
        );
        let bond = ChannelAssignment::bonded(Channel20(2)).unwrap();
        let manual = (s.sounding.offset_db(0, 0, Channel20(2))
            + s.sounding.offset_db(0, 0, Channel20(3)))
            / 2.0;
        assert!((s.assignment_offset_db(0, 0, bond) - manual).abs() < 1e-12);
    }

    #[test]
    fn scanning_allocator_never_loses_under_the_scanned_truth() {
        // Plan with the wideband model vs with the scanning model, both
        // scored at the scanned truth: scan-aware planning must win or
        // tie (it optimizes the true objective).
        let cfg = AllocationConfig::default();
        let plan = ChannelPlan::full_5ghz();
        for seed in 0..5 {
            // Mid-SNR links so per-channel ±2.5 dB actually moves MCS/PER.
            let m = base(&[15.0 + seed as f64, 9.0, 12.0]);
            let truth = ScanningModel::new(
                m.clone(),
                HashSounding {
                    sigma_db: 2.5,
                    seed,
                },
            );
            let spec = AllocSpec {
                restarts: 6,
                seed,
                ..AllocSpec::default()
            };
            let blind = allocate(&m, &plan, &cfg, &spec, &NullSink);
            let aware = allocate(&truth, &plan, &cfg, &spec, &NullSink);
            let y_blind = truth.total_bps(&blind.assignments);
            let y_aware = truth.total_bps(&aware.assignments);
            assert!(
                y_aware + 1e-6 >= y_blind,
                "seed {seed}: aware {y_aware:.4e} < blind {y_blind:.4e}"
            );
        }
    }

    #[test]
    fn scan_overhead_grows_as_the_paper_warns() {
        // 12 channels × 50 ms dwell × 9 APs ≈ 5.4 s of scanning.
        let t = scan_overhead_s(9, 12, 0.05);
        assert!((t - 5.4).abs() < 1e-9);
        assert!(scan_overhead_s(18, 12, 0.05) > t);
    }
}
