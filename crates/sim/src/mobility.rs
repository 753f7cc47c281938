//! Pedestrian-mobility experiments (Figs. 12–13).
//!
//! The paper walks a laptop along a corridor while one AP serves it plus
//! two static clients, comparing ACORN's opportunistic width adaptation
//! against fixed 40 MHz (outbound walk) and fixed 20 MHz (inbound walk).
//! ACORN "uses the 40 MHz channel ... until the point where the link
//! quality becomes poor for the mobile laptop ... \[then\] falls back to the
//! 20 MHz mode and is able to sustain a cell throughput that is almost ten
//! times that of a fixed 40 MHz channel."

use acorn_events::{Ctx, Process, Simulation};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ClientId, Point, Wlan};

// The trajectory type moved to `acorn_topology::geom` (it is pure
// geometry, shared with the event runtime's `MobilityProcess`); the
// re-export keeps this module's historical API.
pub use acorn_topology::Trajectory;

/// Width policy under test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WidthPolicy {
    /// Fixed channel width for the whole run.
    Fixed(ChannelWidth),
    /// ACORN's opportunistic adaptation: each sample, the AP operates at
    /// whichever width its current client SNRs predict more cell
    /// throughput for (the §5.2 fallback logic).
    AcornAdaptive,
}

/// One sample of the mobility time trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilitySample {
    /// Time since walk start (s).
    pub t_s: f64,
    /// Width in use at this sample.
    pub width: ChannelWidth,
    /// Aggregate cell throughput (bits/s).
    pub cell_bps: f64,
    /// The mobile client's HT20 SNR at this sample (dB).
    pub mobile_snr20_db: f64,
}

/// The single-cell mobility experiment: `wlan` must contain exactly one
/// AP; `mobile` identifies which client walks.
#[derive(Debug, Clone)]
pub struct MobilityExperiment {
    /// The deployment (one AP, static clients + the mobile one).
    pub wlan: Wlan,
    /// Index of the mobile client.
    pub mobile: ClientId,
    /// Its walk.
    pub trajectory: Trajectory,
    /// Sampling period (s).
    pub sample_period_s: f64,
    /// Estimator used by the AP.
    pub estimator: LinkQualityEstimator,
    /// Payload size (bytes).
    pub payload_bytes: u32,
}

impl MobilityExperiment {
    /// Cell throughput at a width given current client positions.
    fn cell_bps(&self, wlan: &Wlan, width: ChannelWidth) -> f64 {
        let ap = ApId(0);
        let links: Vec<_> = (0..wlan.clients.len())
            .map(|c| {
                let snr20 = wlan.snr_db(ap, ClientId(c), ChannelWidth::Ht20);
                let p = self.estimator.predict(snr20, ChannelWidth::Ht20, width);
                ClientLink::new(p.mcs, p.per, width, self.estimator.gi)
            })
            .collect();
        CellAirtime::new(&links, self.payload_bytes).cell_throughput_bps(1.0)
    }

    /// Runs the walk under a policy, returning the Fig. 13 time trace.
    ///
    /// Since the event-runtime port this is a kernel scenario: the walk
    /// is a single self-scheduling [`Process`] over a `(Wlan, samples)`
    /// world. Sample times accumulate exactly as the old fixed-step loop
    /// did (`t + period`, from the previous *scheduled* time), so traces
    /// are bit-identical to the pre-kernel implementation.
    pub fn run(&self, policy: WidthPolicy) -> Vec<MobilitySample> {
        assert_eq!(self.wlan.aps.len(), 1, "mobility experiment is single-cell");
        struct WalkWorld {
            wlan: Wlan,
            samples: Vec<MobilitySample>,
        }
        struct WalkProcess {
            exp: MobilityExperiment,
            policy: WidthPolicy,
            horizon_s: f64,
        }
        impl Process<WalkWorld, ()> for WalkProcess {
            fn start(&mut self, ctx: &mut Ctx<'_, WalkWorld, ()>) {
                ctx.schedule_at(0.0, ());
            }
            fn handle(&mut self, _e: &(), ctx: &mut Ctx<'_, WalkWorld, ()>) {
                let t = ctx.now();
                let w = &mut *ctx.world;
                w.wlan.clients[self.exp.mobile.0].pos = self.exp.trajectory.position_at(t);
                let width = match self.policy {
                    WidthPolicy::Fixed(wd) => wd,
                    WidthPolicy::AcornAdaptive => {
                        if self.exp.cell_bps(&w.wlan, ChannelWidth::Ht40)
                            >= self.exp.cell_bps(&w.wlan, ChannelWidth::Ht20)
                        {
                            ChannelWidth::Ht40
                        } else {
                            ChannelWidth::Ht20
                        }
                    }
                };
                let sample = MobilitySample {
                    t_s: t,
                    width,
                    cell_bps: self.exp.cell_bps(&w.wlan, width),
                    mobile_snr20_db: w.wlan.snr_db(ApId(0), self.exp.mobile, ChannelWidth::Ht20),
                };
                w.samples.push(sample);
                ctx.telemetry
                    .record("mobility.cell_bps", t, sample.cell_bps);
                let next = t + self.exp.sample_period_s;
                if next <= self.horizon_s {
                    ctx.schedule_at(next, ());
                }
            }
        }
        let horizon = self.trajectory.duration_s() + 5.0;
        let mut sim: Simulation<WalkWorld, ()> = Simulation::new(WalkWorld {
            wlan: self.wlan.clone(),
            samples: Vec::new(),
        });
        sim.add_process(Box::new(WalkProcess {
            exp: self.clone(),
            policy,
            horizon_s: horizon,
        }));
        sim.run_to_completion();
        sim.world.samples
    }
}

/// Builds the paper's mobility setup: one AP, two static good clients,
/// and a mobile client that walks between `near` and `far` distances from
/// the AP (`outbound` chooses the direction).
pub fn paper_walk(outbound: bool) -> MobilityExperiment {
    use crate::scenario::distance_for_snr20;
    use acorn_topology::pathloss::LogDistance;
    use acorn_topology::wlan::RadioParams;
    let radio = RadioParams::default();
    let pl = LogDistance::indoor_5ghz(0);
    let d_good = distance_for_snr20(&radio, &pl, crate::scenario::GOOD_SNR_DB);
    // Walk from very strong (35 dB) to the CB-collapse regime (0 dB),
    // where a 20 MHz channel still delivers but the bonded channel is
    // nearly dead — the paper's "hardly able to communicate" endpoint.
    let d_near = distance_for_snr20(&radio, &pl, 35.0);
    let d_far = distance_for_snr20(&radio, &pl, 1.54);
    let (from, to) = if outbound {
        (Point::new(d_near, 0.0), Point::new(d_far, 0.0))
    } else {
        (Point::new(d_far, 0.0), Point::new(d_near, 0.0))
    };
    let mut wlan = Wlan::new(
        vec![Point::new(0.0, 0.0)],
        vec![
            Point::new(0.0, d_good),
            Point::new(0.0, -d_good),
            from, // the mobile client starts here
        ],
        9,
    );
    wlan.pathloss.shadowing_sigma_db = 0.0;
    MobilityExperiment {
        wlan,
        mobile: ClientId(2),
        trajectory: Trajectory {
            from,
            to,
            speed_mps: (from.distance(&to) / 45.0).max(0.5), // ~45 s walk, as in Fig. 13
        },
        sample_period_s: 1.0,
        estimator: LinkQualityEstimator::default(),
        payload_bytes: 1500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbound_walk_acorn_switches_40_to_20() {
        // Fig. 13a: ACORN starts at 40 MHz, falls back to 20 MHz when the
        // mobile link degrades.
        let exp = paper_walk(true);
        let trace = exp.run(WidthPolicy::AcornAdaptive);
        assert_eq!(trace.first().unwrap().width, ChannelWidth::Ht40);
        assert_eq!(trace.last().unwrap().width, ChannelWidth::Ht20);
        // Exactly one switch (monotone degradation).
        let switches = trace
            .windows(2)
            .filter(|w| w[0].width != w[1].width)
            .count();
        assert_eq!(switches, 1, "trace should switch once");
    }

    #[test]
    fn outbound_acorn_crushes_fixed_40_at_the_end() {
        // "almost ten times that of a fixed 40 MHz channel" at the far end.
        let exp = paper_walk(true);
        let acorn = exp.run(WidthPolicy::AcornAdaptive);
        let fixed40 = exp.run(WidthPolicy::Fixed(ChannelWidth::Ht40));
        let last_acorn = acorn.last().unwrap().cell_bps;
        let last_fixed = fixed40.last().unwrap().cell_bps;
        assert!(
            last_acorn > 5.0 * last_fixed,
            "acorn {last_acorn:.3e} vs fixed-40 {last_fixed:.3e}"
        );
    }

    #[test]
    fn inbound_walk_acorn_switches_20_to_40_and_beats_fixed_20() {
        // Fig. 13b: ACORN starts at 20 MHz, switches to 40 MHz as the link
        // improves, and ends above the fixed-20 trace.
        let exp = paper_walk(false);
        let acorn = exp.run(WidthPolicy::AcornAdaptive);
        assert_eq!(acorn.first().unwrap().width, ChannelWidth::Ht20);
        assert_eq!(acorn.last().unwrap().width, ChannelWidth::Ht40);
        let fixed20 = exp.run(WidthPolicy::Fixed(ChannelWidth::Ht20));
        assert!(acorn.last().unwrap().cell_bps > 1.2 * fixed20.last().unwrap().cell_bps);
    }

    #[test]
    fn adaptive_never_below_both_fixed_policies() {
        let exp = paper_walk(true);
        let acorn = exp.run(WidthPolicy::AcornAdaptive);
        let f20 = exp.run(WidthPolicy::Fixed(ChannelWidth::Ht20));
        let f40 = exp.run(WidthPolicy::Fixed(ChannelWidth::Ht40));
        for ((a, x), y) in acorn.iter().zip(&f20).zip(&f40) {
            assert!(
                a.cell_bps + 1.0 >= x.cell_bps.min(y.cell_bps),
                "t={}: adaptive {:.3e} below both fixed",
                a.t_s,
                a.cell_bps
            );
            assert!(a.cell_bps + 1.0 >= x.cell_bps.max(y.cell_bps).min(a.cell_bps + 1.0));
        }
        // Stronger: adaptive equals the max of the two at every sample.
        for ((a, x), y) in acorn.iter().zip(&f20).zip(&f40) {
            let best = x.cell_bps.max(y.cell_bps);
            assert!((a.cell_bps - best).abs() < 1e-6 * best.max(1.0));
        }
    }

    #[test]
    fn snr_trace_is_monotone_outbound() {
        let exp = paper_walk(true);
        let trace = exp.run(WidthPolicy::Fixed(ChannelWidth::Ht20));
        for w in trace.windows(2) {
            assert!(w[1].mobile_snr20_db <= w[0].mobile_snr20_db + 1e-9);
        }
    }
}
