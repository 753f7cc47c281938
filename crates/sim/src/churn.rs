//! Closed-loop churn simulation: session arrivals/departures driving
//! Algorithm 1, with periodic Algorithm 2 re-allocation every `T` seconds
//! — the operating regime the paper designs for ("we run our channel
//! allocation algorithm every 30 minutes", §4.2).
//!
//! Since the event-runtime port, this module is a thin adapter: the loop
//! itself is [`SessionProcess`] + [`ReallocationTimer`] on the
//! `acorn-events` kernel, and [`run_churn`] just assembles them and maps
//! the world's re-allocation log back into the historical
//! [`ChurnReport`] shape. Outputs are bit-identical to the pre-kernel
//! sorted-vector loop for every seed: the kernel's `(time, seq)` total
//! order reproduces the old stable sort's tie handling (session events
//! in trace order, then re-allocation ticks), with the bonus that
//! simultaneous events are now *guaranteed* stable and a NaN timestamp
//! fails loudly at scheduling instead of corrupting a sort.

use acorn_core::{AcornController, NetworkState};
use acorn_events::{
    AcornEvent, AcornWorld, ReallocationTimer, SeedPolicy, SessionProcess, Simulation,
};
use acorn_topology::Wlan;
use acorn_traces::Session;

/// Configuration of a churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Re-allocation period `T` (s); the paper's value is 1800.
    pub reallocation_period_s: f64,
    /// Random restarts per re-allocation.
    pub restarts: usize,
    /// Run the opportunistic width adaptation after every event.
    pub adapt_widths: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            horizon_s: 4.0 * 3600.0,
            reallocation_period_s: acorn_traces::REALLOCATION_PERIOD_S,
            restarts: 4,
            adapt_widths: false,
        }
    }
}

/// One re-allocation snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Simulation time (s).
    pub t_s: f64,
    /// Clients associated at this instant.
    pub active_clients: usize,
    /// Predicted network throughput before re-allocation (bits/s).
    pub before_bps: f64,
    /// Predicted network throughput after re-allocation (bits/s).
    pub after_bps: f64,
    /// Channel switches the re-allocation performed.
    pub switches: usize,
}

/// Result of a churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// One entry per re-allocation epoch.
    pub snapshots: Vec<Snapshot>,
    /// The final network state.
    pub final_state: NetworkState,
}

impl ChurnReport {
    /// Time-averaged post-re-allocation throughput (bits/s).
    pub fn mean_after_bps(&self) -> f64 {
        if self.snapshots.is_empty() {
            0.0
        } else {
            self.snapshots.iter().map(|s| s.after_bps).sum::<f64>() / self.snapshots.len() as f64
        }
    }
}

/// Runs the closed loop. `wlan` must have at least one client slot per
/// session (`sessions[i].client` indexes `wlan.clients`).
pub fn run_churn(
    wlan: &Wlan,
    ctl: &AcornController,
    sessions: &[Session],
    config: &ChurnConfig,
    seed: u64,
) -> ChurnReport {
    let world = AcornWorld::new(wlan.clone(), ctl.clone(), seed);
    let mut sim: Simulation<AcornWorld, AcornEvent> = Simulation::new(world);
    // Registration order is load-bearing: session events get the low
    // sequence numbers (in trace order), the timer's ticks come after —
    // reproducing the old stable sort's same-timestamp ordering exactly.
    sim.add_process(Box::new(SessionProcess {
        sessions: sessions.to_vec(),
        horizon_s: config.horizon_s,
        adapt_widths: config.adapt_widths,
    }));
    sim.add_process(Box::new(ReallocationTimer {
        period_s: config.reallocation_period_s,
        horizon_s: config.horizon_s,
        restarts: config.restarts,
        adapt_widths: config.adapt_widths,
        // The historical epoch-seed sequence: seed+1, seed+2, …
        seed_policy: SeedPolicy::Sequential {
            next: seed.wrapping_add(1),
        },
        safe_mode: false,
    }));
    sim.run(config.horizon_s);
    let snapshots = sim
        .world
        .realloc_log
        .iter()
        .map(|r| Snapshot {
            t_s: r.t_s,
            active_clients: r.active_clients,
            before_bps: r.before_bps,
            after_bps: r.after_bps,
            switches: r.switches,
        })
        .collect();
    ChurnReport {
        snapshots,
        final_state: sim.world.state.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::enterprise_grid;
    use acorn_core::AcornConfig;
    use acorn_traces::SessionGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(horizon_s: f64) -> (Wlan, AcornController, Vec<Session>) {
        let mut rng = StdRng::seed_from_u64(1);
        let sessions = SessionGenerator::enterprise_default().generate(&mut rng, horizon_s);
        let wlan = enterprise_grid(2, 2, 50.0, sessions.len().max(1), 2);
        (wlan, AcornController::new(AcornConfig::default()), sessions)
    }

    #[test]
    fn snapshot_cadence_matches_the_period() {
        let (wlan, ctl, sessions) = setup(7200.0);
        let cfg = ChurnConfig {
            horizon_s: 7200.0,
            reallocation_period_s: 1800.0,
            restarts: 2,
            adapt_widths: false,
        };
        let report = run_churn(&wlan, &ctl, &sessions, &cfg, 3);
        assert_eq!(report.snapshots.len(), 3); // t = 1800, 3600, 5400
        for (i, s) in report.snapshots.iter().enumerate() {
            assert!((s.t_s - 1800.0 * (i + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn reallocation_never_reduces_predicted_throughput() {
        let (wlan, ctl, sessions) = setup(7200.0);
        let report = run_churn(
            &wlan,
            &ctl,
            &sessions,
            &ChurnConfig {
                horizon_s: 7200.0,
                ..ChurnConfig::default()
            },
            5,
        );
        for s in &report.snapshots {
            assert!(
                s.after_bps + 1.0 >= s.before_bps,
                "t={}: {} -> {}",
                s.t_s,
                s.before_bps,
                s.after_bps
            );
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let (wlan, ctl, sessions) = setup(3600.0);
        let cfg = ChurnConfig {
            horizon_s: 3600.0,
            restarts: 2,
            ..ChurnConfig::default()
        };
        let a = run_churn(&wlan, &ctl, &sessions, &cfg, 9);
        let b = run_churn(&wlan, &ctl, &sessions, &cfg, 9);
        assert_eq!(a.snapshots, b.snapshots);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn all_sessions_eventually_depart() {
        let (wlan, ctl, sessions) = setup(3600.0);
        let report = run_churn(
            &wlan,
            &ctl,
            &sessions,
            &ChurnConfig {
                horizon_s: 1e9, // long enough for every session to end
                reallocation_period_s: 1e8,
                restarts: 1,
                adapt_widths: false,
            },
            11,
        );
        assert!(report.final_state.assoc.iter().all(|a| a.is_none()));
    }

    #[test]
    fn adaptation_keeps_operating_widths_legal() {
        let (wlan, ctl, sessions) = setup(3600.0);
        let report = run_churn(
            &wlan,
            &ctl,
            &sessions,
            &ChurnConfig {
                horizon_s: 3600.0,
                adapt_widths: true,
                restarts: 2,
                ..ChurnConfig::default()
            },
            13,
        );
        for (a, w) in report
            .final_state
            .assignments
            .iter()
            .zip(&report.final_state.operating_width)
        {
            // Operating width never exceeds the assigned width.
            assert!(
                *w == a.width() || *w == acorn_phy::ChannelWidth::Ht20,
                "{a:?} operating at {w:?}"
            );
        }
    }

    #[test]
    fn simultaneous_events_keep_trace_order() {
        // Regression for the pre-kernel sorted-vector loop, which ordered
        // same-timestamp events only by sort stability (and panicked on
        // NaN): a session arriving at *exactly* a re-allocation instant
        // must be associated before the re-allocation fires — session
        // events were pushed (and are now sequence-numbered) first.
        let wlan = enterprise_grid(2, 2, 50.0, 2, 2);
        let ctl = AcornController::new(AcornConfig::default());
        let sessions = vec![
            Session {
                client: 0,
                start_s: 1800.0,
                duration_s: 100.0,
            },
            Session {
                client: 1,
                start_s: 1800.0, // simultaneous arrivals stay in trace order
                duration_s: 50.0,
            },
        ];
        let cfg = ChurnConfig {
            horizon_s: 3600.0,
            reallocation_period_s: 1800.0,
            restarts: 1,
            adapt_widths: false,
        };
        let report = run_churn(&wlan, &ctl, &sessions, &cfg, 21);
        assert_eq!(report.snapshots.len(), 1);
        assert_eq!(
            report.snapshots[0].active_clients, 2,
            "arrivals at t = T must be visible to the re-allocation at t = T"
        );
        // And the whole thing is reproducible, ties included.
        let again = run_churn(&wlan, &ctl, &sessions, &cfg, 21);
        assert_eq!(report.snapshots, again.snapshots);
        assert_eq!(report.final_state, again.final_state);
    }

    #[test]
    #[should_panic(expected = "no position")]
    fn oversized_session_index_panics() {
        let (wlan, ctl, _) = setup(100.0);
        let bogus = vec![Session {
            client: wlan.clients.len() + 5,
            start_s: 0.0,
            duration_s: 10.0,
        }];
        run_churn(&wlan, &ctl, &bogus, &ChurnConfig::default(), 1);
    }
}
