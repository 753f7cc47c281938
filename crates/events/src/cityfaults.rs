//! Continuous fault injection for [`CityScenario`](crate::CityScenario):
//! the shared fault core with localized reactions.
//!
//! The incremental world exists because network-wide recomputation is
//! too expensive per event, and its fault process keeps that discipline:
//! an AP crash touches only its own cell's clients (who detect beacon
//! silence and re-scan through the spatial index), a measurement fault
//! is one gated report of one cached link, and a beacon is encoded once
//! by the real `wire` codec and only the copies the gauntlet damages are
//! parsed — so chaos at 1 000 APs costs O(faults), not O(network). A beacon's delays are read from the
//! world's advert cache, never re-estimated here.
//!
//! What the process adds to the fault core it shares with
//! [`FaultProcess`](crate::FaultProcess) (documented, not accidental):
//!
//! * No per-client [`ClientTracker`](acorn_core::ClientTracker) — the
//!   incremental world's measurement state *is* its cached SNRs, and
//!   the NaN/outlier gates here only count what they reject. A report
//!   either gate accepts equals the cached SNR it was drawn from (a
//!   clean draw returns it; a ±25 dB spike always exceeds the 12.5 dB
//!   gate), so measurement faults never reach the cache, the adverts or
//!   the network: nothing here writes the world's links.
//! * No IAPP/CSA machinery — re-allocation deploys instantly through the
//!   per-component allocator; beacons are the only wire path.
//! * A client whose re-scan finds no live AP stays unassociated until
//!   its session departs (counted in `faults.rescan_failures`); retrying
//!   would risk resurrecting departed clients.

use crate::city::CityWorld;
use crate::faults::{Delivery, FaultCore, FaultPlan, OUTLIER_DB, SALT_MEAS};
use crate::sim::{Ctx, Process};
use crate::world::AcornEvent;

/// The incremental world's fault process. Register it *last* on a
/// scenario so the benign event schedule (and therefore every
/// pre-existing golden fingerprint) is untouched when it is absent.
pub struct CityFaultProcess {
    core: FaultCore,
}

impl CityFaultProcess {
    /// Creates the process for `plan` over a given horizon.
    pub fn new(plan: FaultPlan, horizon_s: f64) -> CityFaultProcess {
        CityFaultProcess {
            core: FaultCore::new(plan, horizon_s),
        }
    }

    /// One control round: measurements → beacons → detection →
    /// throughput sample.
    fn control_round(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        let n_aps = ctx.world.wlan.aps.len();
        self.core.begin_round(ctx.world, |_| {});

        // --- 1. Measurements: each live AP re-measures its own clients'
        // links (the cached SNRs); the NaN/outlier gates count the
        // faults they reject.
        let mut meas_rng = self.core.rng(ctx, SALT_MEAS);
        let w = &*ctx.world;
        for ap in (0..n_aps).filter(|&ap| w.ap_up[ap]) {
            for &c in w.cell_clients(ap) {
                let cached = w.client_snr20_cached(c as usize);
                let Some(reported) = self.core.measure(&mut meas_rng, cached) else {
                    continue; // stuck sensor: no report this round
                };
                // A NaN report is a measurement fault. Outlier gate: a
                // jump of more than half the injected spike magnitude
                // against the cached value is rejected (shadowing drift
                // moves links by a few dB per step; a 25 dB spike is
                // physically implausible between rounds).
                if !reported.is_finite() {
                    ctx.telemetry.inc("faults.measurement_faults");
                } else if (reported - cached).abs() > 0.5 * OUTLIER_DB {
                    ctx.telemetry.inc("faults.outliers_rejected");
                }
            }
        }

        // --- 2. Beacons: the cell's cached delays at its operating width,
        // access share over live neighbours.
        let advert = |w: &CityWorld, ap: usize, delays: &mut Vec<f64>| {
            let width = w.state.operating_width[ap] as usize;
            let cell = w.cell_clients(ap).iter();
            delays.extend(cell.map(|&c| w.client_delays[c as usize][width]));
            w.access_share(ap, true)
        };
        self.core.beacons(ctx, advert, |_, _| {});

        // --- 3. Detection: beacon silence past the miss limit and the
        // client declares its AP dead and re-scans.
        for c in 0..ctx.world.wlan.clients.len() {
            if ctx.world.state.assoc[c].is_some()
                && self.core.silent(c)
                && !self.core.rescan(ctx, c)
            {
                ctx.telemetry.inc("faults.rescan_failures");
            }
        }

        // --- 4. Per-round live-network throughput.
        self.core.end_round(ctx);
    }
}

impl Process<CityWorld, AcornEvent> for CityFaultProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        self.core.start(ctx);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        match *event {
            AcornEvent::ControlRound => self.control_round(ctx),
            AcornEvent::ApCrash(ap) => {
                self.core.crash(ctx, ap);
            }
            AcornEvent::ApRestart(ap) => self.core.restart(ctx, ap),
            AcornEvent::DeliverMsg(id) => {
                if let Some(Delivery::Beacon { ok, ap, client }) = self.core.pending.remove(&id) {
                    self.core.late_beacon(ctx, ok, ap, client);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityScenario;
    use crate::DriftSpec;
    use acorn_core::{AcornConfig, AcornController};
    use acorn_topology::{Point, Wlan};
    use acorn_traces::Session;

    fn wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(400.0, 0.0),
                Point::new(450.0, 0.0),
            ],
            vec![
                Point::new(10.0, 5.0),
                Point::new(40.0, -5.0),
                Point::new(410.0, 5.0),
                Point::new(440.0, -5.0),
                Point::new(25.0, 10.0),
                Point::new(425.0, 10.0),
            ],
            17,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn scenario(faults: Option<FaultPlan>) -> CityScenario {
        CityScenario {
            wlan: wlan(),
            sessions: (0..6)
                .map(|c| Session {
                    client: c,
                    start_s: 5.0 + 10.0 * c as f64,
                    duration_s: 2000.0,
                })
                .collect(),
            horizon_s: 1800.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults,
            seed: 11,
            record_log: false,
        }
    }

    #[test]
    fn city_crash_is_detected_and_clients_rescan() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(100.0),
            ap_mttr_s: 400.0,
            max_crashes: 1,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run(&ctl);
        let res = r.resilience.expect("faults were set");
        assert_eq!(res.crashes, 1);
        assert!(res.rescans > 0, "silence detection never fired");
        // Every client that survived the crash sits on a live AP at the
        // end (sessions outlive the horizon, so all 6 stay active).
        assert!(res.frames_sent > 0);
    }

    #[test]
    fn city_faults_are_deterministic() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(300.0),
            loss: 0.1,
            corruption: 0.05,
            delay_prob: 0.1,
            delay_max_s: 15.0,
            meas_nan: 0.02,
            meas_outlier: 0.05,
            meas_freeze: 0.02,
            ..FaultPlan::default()
        };
        let a = scenario(Some(plan)).run(&ctl);
        let b = scenario(Some(plan)).run(&ctl);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn benign_city_plan_changes_nothing_structural() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run(&ctl);
        let res = r.resilience.expect("faults were set");
        assert_eq!(res.crashes, 0);
        assert_eq!(res.frames_lost, 0);
        assert_eq!(res.parse_errors, 0);
        assert_eq!(res.safe_mode_epochs, 0);
        assert!(res.frames_sent > 0, "benign plans still run the wire path");
    }

    #[test]
    fn city_resilience_twin_fills_retention() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(200.0),
            ap_mttr_s: 300.0,
            loss: 0.05,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run_resilience(&ctl);
        let res = r.resilience.expect("faults were set");
        assert!(res.golden_mean_bps > 0.0);
        assert!(res.throughput_retained > 0.0 && res.throughput_retained <= 1.5);
    }
}
