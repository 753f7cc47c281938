//! The exact ACORN world: the [`Exact`] locality and the
//! [`CompositeScenario`] that wires the standard processes over it.
//!
//! [`Exact`] is the reference semantics: a client probes every live AP,
//! the §5.2 width fallback runs network-wide after any association
//! change, and an epoch evaluates the per-AP effective-width objective
//! before building the model and running the paper's whole-network
//! Algorithm 2. It reads the structures the [`World`] maintains for
//! every locality — the conflict graph, the cells and their adverts —
//! and keeps only those decisions: cells list their clients in
//! ascending index, the order
//! [`NetworkState::cell_clients`](acorn_core::NetworkState::cell_clients)
//! lists and [`AcornController::build_model`] sums in, so every
//! candidate, width choice, goodput sample and epoch model
//! equals the controller's offline API (`candidates_for`,
//! `adapt_widths`, `total_throughput_bps`, `build_model`) bit for bit.
//! Each event is still O(network) — every AP is probed and every bonded
//! AP revisited — which caps it at a few hundred APs;
//! [`Incremental`](crate::city::Incremental) localizes the same loop for
//! city scale.
//!
//! [`CompositeScenario`] wires sessions, re-allocation, and optionally
//! mobility, drift and faults into one [`Simulation`] and returns the
//! telemetry snapshot plus the executed event log — the object the
//! thread-count determinism tests compare.

use crate::faults::{run_with_golden_twin, FaultPlan, FaultProcess};
use crate::sim::Simulation;
use crate::world::{
    AcornEvent, DriftSpec, Locality, MobilityProcess, ReallocationTimer, ScenarioReport,
    SeedPolicy, SessionProcess, World,
};
use acorn_core::{AcornController, NetworkModel};
use acorn_obs::{names, RecordingSink, Sink};
use acorn_phy::ChannelWidth;
use acorn_topology::{ClientId, Trajectory, Wlan};
use acorn_traces::Session;

/// The exact locality: every query network-wide, cells in ascending
/// client index.
#[derive(Debug, Clone, Copy)]
pub struct Exact;

/// The exact world.
pub type AcornWorld = World<Exact>;

impl AcornWorld {
    /// A world with a fresh controller state seeded from `seed`.
    pub fn new(wlan: Wlan, ctl: AcornController, seed: u64) -> AcornWorld {
        World::with_locality(wlan, ctl, seed, Exact)
    }
}

impl Locality for Exact {
    type Epoch = ();
    const PER_COMPONENT: bool = false;
    const ASSOCIATION_ORDER: bool = false;

    fn probe_scope(w: &AcornWorld, _c: usize) -> Vec<usize> {
        (0..w.wlan.aps.len()).collect()
    }

    /// Network-wide after any association change, even one that found
    /// no AP.
    fn adapt_after_change(w: &mut AcornWorld, _ap: Option<usize>) {
        Self::adapt_all(w);
    }

    /// Every bonded AP compares its cell's contention-free goodput at
    /// both widths, from the cached ATDs.
    fn adapt_all(w: &mut AcornWorld) {
        for ap in 0..w.wlan.aps.len() {
            if w.state.assignments[ap].width() == ChannelWidth::Ht40 {
                let t20 = w.cell_bps(ap, ChannelWidth::Ht20, 1.0);
                let t40 = w.cell_bps(ap, ChannelWidth::Ht40, 1.0);
                let current = w.state.operating_width[ap];
                w.state.operating_width[ap] = w.ctl.choose_width(current, t20, t40);
            }
        }
    }

    /// Every live cell at its operating width, with its access share over
    /// all its neighbours. With every AP up this sums every cell, so
    /// fault-free runs keep their golden fingerprints.
    fn live_bps(w: &AcornWorld) -> f64 {
        (0..w.wlan.aps.len())
            .filter(|&ap| w.ap_up[ap])
            .map(|ap| w.cell_bps(ap, w.state.operating_width[ap], w.access_share(ap, false)))
            .sum()
    }

    fn open_epoch(_w: &AcornWorld) {}

    fn objective_bps(w: &AcornWorld, _epoch: &()) -> f64 {
        Self::live_bps(w)
    }

    fn epoch_model(w: &AcornWorld, _epoch: ()) -> NetworkModel {
        w.build_model()
    }

    fn close_epoch(_model: &NetworkModel, total_bps: f64, sink: &RecordingSink) {
        sink.inc(names::CONTROLLER_EPOCHS);
        sink.gauge(names::CONTROLLER_TOTAL_BPS, total_bps);
    }
}

/// Mobility parameters for a [`CompositeScenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilitySpec {
    /// The walking client.
    pub client: ClientId,
    /// Its walk.
    pub trajectory: Trajectory,
    /// Position-update period (s).
    pub sample_period_s: f64,
}

/// A full scenario: session churn + periodic re-allocation, optionally
/// with a mobile client, shadowing drift, and a fault-injection layer,
/// over one deployment. Process registration order is fixed (sessions,
/// timer, mobility, drift, faults), which pins every event's sequence
/// number and therefore the whole dispatch order — the fault process
/// registering *last* keeps fault-free schedules (and their golden
/// fingerprints) byte-identical to pre-fault builds.
#[derive(Clone)]
pub struct CompositeScenario {
    /// The deployment.
    pub wlan: Wlan,
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Re-allocation period `T` (s).
    pub reallocation_period_s: f64,
    /// Restarts per re-allocation epoch.
    pub restarts: usize,
    /// Run the §5.2 width adaptation after association/mobility events.
    pub adapt_widths: bool,
    /// Optional walking client.
    pub mobility: Option<MobilitySpec>,
    /// Optional shadowing drift.
    pub drift: Option<DriftSpec>,
    /// Optional fault-injection layer. Setting it (even to a benign plan)
    /// runs the full control-plane-on-the-wire machinery and switches the
    /// re-allocation timer to safe mode.
    pub faults: Option<FaultPlan>,
    /// Master seed (initial assignment + per-epoch restart streams).
    pub seed: u64,
    /// Record the executed-event log (costs a `String` per event).
    pub record_log: bool,
}

/// What a [`CompositeScenario`] run produced.
pub type CompositeReport = ScenarioReport<Exact>;

impl CompositeScenario {
    /// Runs the scenario under `ctl` to its horizon.
    pub fn run(&self, ctl: &AcornController) -> CompositeReport {
        let world = AcornWorld::new(self.wlan.clone(), ctl.clone(), self.seed);
        let mut sim: Simulation<AcornWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(self.record_log);
        sim.add_process(Box::new(SessionProcess {
            sessions: self.sessions.clone(),
            horizon_s: self.horizon_s,
            adapt_widths: self.adapt_widths,
        }));
        sim.add_process(Box::new(ReallocationTimer {
            period_s: self.reallocation_period_s,
            horizon_s: self.horizon_s,
            restarts: self.restarts,
            adapt_widths: self.adapt_widths,
            seed_policy: SeedPolicy::for_scenario(self.seed, self.faults.is_some()),
            safe_mode: self.faults.is_some(),
        }));
        if let Some(m) = self.mobility {
            sim.add_process(Box::new(MobilityProcess {
                client: m.client,
                trajectory: m.trajectory,
                sample_period_s: m.sample_period_s,
                horizon_s: self.horizon_s,
                adapt_widths: self.adapt_widths,
            }));
        }
        if let Some(d) = self.drift {
            sim.add_process(Box::new(d.process(self.horizon_s)));
        }
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(FaultProcess::new(plan, self.horizon_s)));
        }
        ScenarioReport::run(sim, self.horizon_s, self.faults.is_some())
    }

    /// Runs the scenario under its fault plan and under the plan's
    /// fault-free twin ([`run_with_golden_twin`]) and returns the faulty
    /// report with its golden-comparison fields filled in.
    pub fn run_resilience(&self, ctl: &AcornController) -> CompositeReport {
        let with_plan = |plan| CompositeScenario {
            faults: Some(plan),
            ..self.clone()
        };
        run_with_golden_twin(
            self.faults,
            |p| with_plan(p).run(ctl),
            |r| &mut r.resilience,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::AcornConfig;
    use acorn_topology::{Point, Wlan};

    fn tiny_wlan(n_clients: usize) -> Wlan {
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)],
            (0..n_clients)
                .map(|i| Point::new(10.0 + 5.0 * i as f64, 5.0))
                .collect(),
            5,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn sessions() -> Vec<Session> {
        vec![
            Session {
                client: 0,
                start_s: 10.0,
                duration_s: 500.0,
            },
            Session {
                client: 1,
                start_s: 10.0, // simultaneous with client 0's arrival
                duration_s: 100.0,
            },
            Session {
                client: 2,
                start_s: 400.0,
                duration_s: 10_000.0, // clamped to the horizon
            },
        ]
    }

    fn scenario(seed: u64) -> CompositeScenario {
        CompositeScenario {
            wlan: tiny_wlan(4),
            sessions: sessions(),
            horizon_s: 1000.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            adapt_widths: true,
            mobility: Some(MobilitySpec {
                client: ClientId(3),
                trajectory: Trajectory {
                    from: Point::new(5.0, 0.0),
                    to: Point::new(55.0, 0.0),
                    speed_mps: 0.1,
                },
                sample_period_s: 100.0,
            }),
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults: None,
            seed,
            record_log: true,
        }
    }

    #[test]
    fn composite_runs_all_processes() {
        let ctl = AcornController::new(AcornConfig::default());
        let r = scenario(7).run(&ctl);
        // 3 arrivals + 3 departures + 3 reallocs (300, 600, 900)
        // + 11 mobility samples (0..=1000) + 4 drift steps (250..=1000).
        assert_eq!(r.stats.events, 3 + 3 + 3 + 11 + 4);
        assert_eq!(r.realloc.len(), 3);
        let tel = &r.telemetry;
        let counter = |n: &str| {
            tel.counters
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("sessions.arrivals"), 3);
        assert_eq!(counter("sessions.departures"), 3);
        assert_eq!(counter("reallocations"), 3);
        assert_eq!(counter("mobility.samples"), 11);
        assert_eq!(counter("drift.steps"), 4);
        assert!(r.final_state.assoc.iter().all(|a| a.is_none()));
    }

    #[test]
    fn composite_is_reproducible() {
        let ctl = AcornController::new(AcornConfig::default());
        let a = scenario(7).run(&ctl);
        let b = scenario(7).run(&ctl);
        assert_eq!(a.log, b.log);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn seed_changes_the_outcome() {
        let ctl = AcornController::new(AcornConfig::default());
        let a = scenario(7).run(&ctl);
        let b = scenario(8).run(&ctl);
        // Different initial assignments make some recorded quantity move.
        assert!(
            a.telemetry != b.telemetry || a.final_state != b.final_state,
            "seeds 7 and 8 produced identical runs"
        );
    }

    #[test]
    fn simultaneous_arrivals_dispatch_in_trace_order() {
        // Clients 0 and 1 arrive at the same instant; the log must show
        // client 0 first (its events were scheduled first).
        let ctl = AcornController::new(AcornConfig::default());
        let r = scenario(7).run(&ctl);
        let log = r.log.unwrap();
        let arrivals: Vec<&str> = log
            .entries
            .iter()
            .filter(|e| e.kind.starts_with("Arrive"))
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(arrivals, vec!["Arrive(0)", "Arrive(1)", "Arrive(2)"]);
    }

    #[test]
    fn drift_decorrelates_links_over_the_run() {
        let ctl = AcornController::new(AcornConfig::default());
        let mut sc = scenario(7);
        sc.wlan.pathloss.shadowing_sigma_db = 6.0;
        let with_drift = sc.run(&ctl);
        sc.drift = None;
        let without = sc.run(&ctl);
        let phase = |r: &CompositeReport| {
            r.telemetry
                .gauges
                .iter()
                .find(|g| g.name == "drift.phase_rad")
                .map(|g| g.value)
        };
        assert_eq!(phase(&with_drift), Some(0.05 * 4.0));
        assert_eq!(phase(&without), None);
        // The drifted run sees different SNR samples once the phase moves.
        let snr = |r: &CompositeReport| {
            r.telemetry
                .series
                .iter()
                .find(|s| s.name == "mobility.snr20_db")
                .unwrap()
                .values
                .clone()
        };
        assert_ne!(snr(&with_drift), snr(&without));
    }
}
