//! The soak harness: wires the streaming workload, re-allocation
//! timer, drift, goodput probe, invariant watchdog, and fault layer
//! over one incrementally-maintained [`CityWorld`], and aggregates the
//! run into a [`SoakReport`].
//!
//! Process registration order is fixed (workload, re-allocation, drift,
//! probe, watchdog, sabotage, faults) — registration order pins the
//! dispatch order of simultaneous events, which pins every output bit.

use crate::probe::{SoakProbe, NETWORK_BPS};
use crate::watchdog::{InvariantWatchdog, SabotageProcess, WatchdogSpec};
use crate::workload::{WorkloadGen, WorkloadSpec};
use acorn_core::AcornController;
use acorn_core::NetworkState;
use acorn_ctrlplane::{CrashWindow, PartitionWindow};
use acorn_events::{
    run_with_golden_twin, AcornEvent, CityFaultProcess, CityWorld, DriftSpec, EventLog, FaultPlan,
    ReallocRecord, ReallocationTimer, ResilienceReport, RunStats, SeedPolicy, Simulation,
    TelemetrySnapshot,
};
use acorn_obs::{SeriesEntry, SketchEntry};

/// A long-horizon chaos-soak scenario over a city-scale deployment.
#[derive(Clone)]
pub struct SoakScenario {
    /// The deployment (any `Wlan`; `acorn_sim::scenario::city_grid`
    /// shaped for the full-scale runs).
    pub wlan: acorn_topology::Wlan,
    /// Virtual horizon (s) — days, not minutes.
    pub horizon_s: f64,
    /// Re-allocation period `T` (s).
    pub reallocation_period_s: f64,
    /// Restarts per shard per re-allocation epoch.
    pub restarts: usize,
    /// Association candidate radius (m).
    pub candidate_radius_m: f64,
    /// Run the localized §5.2 width adaptation.
    pub adapt_widths: bool,
    /// Optional shadowing drift.
    pub drift: Option<DriftSpec>,
    /// Optional fault layer (AP crash/restart, measurement faults,
    /// beacon gauntlet). Setting it switches the re-allocation timer to
    /// safe mode and epoch seeds to the sequential policy, exactly as
    /// in `CityScenario`.
    pub faults: Option<FaultPlan>,
    /// The streaming workload shape.
    pub workload: WorkloadSpec,
    /// Goodput probe period (s).
    pub probe_period_s: f64,
    /// Online invariant watchdog; `None` runs blind (benchmarks only).
    pub watchdog: Option<WatchdogSpec>,
    /// Deliberate state corruption at this time (watchdog negative
    /// tests only).
    pub sabotage_at_s: Option<f64>,
    /// Master seed (initial assignment + per-epoch restart streams).
    pub seed: u64,
    /// Record the executed-event log (costs a `String` per event —
    /// short determinism runs only, never multi-day soaks).
    pub record_log: bool,
}

impl SoakScenario {
    /// A soak over `wlan` with every knob at its soak default: T = 30
    /// min, probe every minute, watchdog on, no faults, no drift.
    pub fn new(wlan: acorn_topology::Wlan, horizon_s: f64, seed: u64) -> SoakScenario {
        SoakScenario {
            wlan,
            horizon_s,
            reallocation_period_s: acorn_traces::REALLOCATION_PERIOD_S,
            restarts: 2,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: None,
            faults: None,
            workload: WorkloadSpec::default(),
            probe_period_s: 60.0,
            watchdog: Some(WatchdogSpec::default()),
            sabotage_at_s: None,
            seed,
            record_log: false,
        }
    }

    /// Runs the soak under `ctl` to its horizon (or the watchdog's
    /// fail-fast stop).
    pub fn run(&self, ctl: &AcornController) -> SoakReport {
        let world = CityWorld::new(
            self.wlan.clone(),
            ctl.clone(),
            self.candidate_radius_m,
            self.seed,
        );
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(self.record_log);
        sim.add_process(Box::new(WorkloadGen::new(
            self.workload.clone(),
            self.horizon_s,
            self.adapt_widths,
        )));
        sim.add_process(Box::new(ReallocationTimer {
            period_s: self.reallocation_period_s,
            horizon_s: self.horizon_s,
            restarts: self.restarts,
            adapt_widths: self.adapt_widths,
            seed_policy: SeedPolicy::for_scenario(self.seed, self.faults.is_some()),
            safe_mode: self.faults.is_some(),
        }));
        if let Some(d) = self.drift {
            sim.add_process(Box::new(d.process(self.horizon_s)));
        }
        sim.add_process(Box::new(SoakProbe {
            period_s: self.probe_period_s,
            horizon_s: self.horizon_s,
        }));
        if let Some(spec) = self.watchdog {
            sim.add_process(Box::new(InvariantWatchdog::new(
                spec,
                self.horizon_s,
                self.seed,
                self.faults.is_some(),
            )));
        }
        if let Some(at_s) = self.sabotage_at_s {
            sim.add_process(Box::new(SabotageProcess { at_s }));
        }
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(CityFaultProcess::new(plan, self.horizon_s)));
        }
        let stats = sim.run(self.horizon_s);
        let resilience = self
            .faults
            .map(|_| ResilienceReport::from_telemetry(&sim.telemetry));
        let checks = sim.telemetry.counter("watchdog.checks");
        let violations = sim.telemetry.counter("watchdog.violations");
        SoakReport {
            stats,
            telemetry: sim.telemetry.snapshot(),
            log: sim.event_log().cloned(),
            realloc: std::mem::take(&mut sim.world.realloc_log),
            final_state: sim.world.state.clone(),
            resilience,
            checks,
            violations,
            peak_rss_kb: crate::peak_rss_kb(),
        }
    }

    /// Runs the soak twice — with its fault plan and with the plan's
    /// fault-free twin — and fills the resilience report's golden
    /// comparison (`golden_mean_bps`, `throughput_retained`).
    pub fn run_resilience(&self, ctl: &AcornController) -> SoakReport {
        let with_plan = |plan| SoakScenario {
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

/// What a soak run produced.
pub struct SoakReport {
    /// Events dispatched and final virtual time.
    pub stats: RunStats,
    /// The frozen telemetry (counters, gauges, capped series, sketches).
    pub telemetry: TelemetrySnapshot,
    /// The executed-event log (present iff `record_log` was set).
    pub log: Option<EventLog>,
    /// One record per re-allocation epoch.
    pub realloc: Vec<ReallocRecord>,
    /// The final controller state.
    pub final_state: NetworkState,
    /// Fault-layer aggregates (present iff `faults` was set).
    pub resilience: Option<ResilienceReport>,
    /// Watchdog checks executed.
    pub checks: u64,
    /// Watchdog violations observed (0 on a healthy run).
    pub violations: u64,
    /// Peak RSS at snapshot time (kB), where measurable.
    pub peak_rss_kb: Option<u64>,
}

impl SoakReport {
    /// A counter's final value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// A gauge's final value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.telemetry
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
    }

    /// A frozen sketch row by name.
    pub fn sketch(&self, name: &str) -> Option<&SketchEntry> {
        self.telemetry.sketches.iter().find(|s| s.name == name)
    }

    /// A frozen series row by name.
    pub fn series(&self, name: &str) -> Option<&SeriesEntry> {
        self.telemetry.series.iter().find(|s| s.name == name)
    }

    /// Mean of the retained `soak.network_bps` window.
    pub fn mean_network_bps(&self) -> f64 {
        match self.series(NETWORK_BPS) {
            Some(s) if !s.values.is_empty() => s.values.iter().sum::<f64>() / s.values.len() as f64,
            _ => 0.0,
        }
    }

    /// Quality drift over the retained probe window: mean goodput of the
    /// last quarter divided by the first quarter's (1.0 = flat, < 1 =
    /// decaying). `None` with fewer than 8 retained samples. On runs
    /// long enough for ring eviction the window is the *recent* history,
    /// which is exactly what a drift check should look at.
    pub fn quality_drift(&self) -> Option<f64> {
        let s = self.series(NETWORK_BPS)?;
        let n = s.values.len();
        if n < 8 {
            return None;
        }
        let q = n / 4;
        let first: f64 = s.values[..q].iter().sum::<f64>() / q as f64;
        let last: f64 = s.values[n - q..].iter().sum::<f64>() / q as f64;
        if first > 0.0 {
            Some(last / first)
        } else {
            None
        }
    }
}

/// Partition windows cycling round-robin over `n_zones`, starting at
/// `first_at_s`, one window every `period_s`, each `duration_s` long,
/// until `horizon_s` — continuous control-plane chaos for long soaks
/// (the single-window configs the short scenarios use don't stretch to
/// days).
pub fn periodic_partitions(
    n_zones: usize,
    first_at_s: f64,
    period_s: f64,
    duration_s: f64,
    horizon_s: f64,
) -> Vec<PartitionWindow> {
    cycle_zones(n_zones, first_at_s, period_s, duration_s, horizon_s)
        .map(|(zone, from_s, until_s)| PartitionWindow {
            zone,
            from_s,
            until_s,
        })
        .collect()
}

/// Crash/restart windows cycling round-robin over `n_zones` — the
/// crash-side counterpart of [`periodic_partitions`].
pub fn periodic_crashes(
    n_zones: usize,
    first_at_s: f64,
    period_s: f64,
    downtime_s: f64,
    horizon_s: f64,
) -> Vec<CrashWindow> {
    cycle_zones(n_zones, first_at_s, period_s, downtime_s, horizon_s)
        .map(|(zone, at_s, restart_at_s)| CrashWindow {
            zone,
            at_s,
            restart_at_s,
        })
        .collect()
}

/// `(zone, start, end)` of each window: one every `period_s` from
/// `first_at_s` until `horizon_s`, zones in round-robin order, each
/// `length_s` long but clipped to the horizon.
fn cycle_zones(
    n_zones: usize,
    first_at_s: f64,
    period_s: f64,
    length_s: f64,
    horizon_s: f64,
) -> impl Iterator<Item = (usize, f64, f64)> {
    assert!(period_s > 0.0, "window period must be positive");
    let starts = std::iter::successors(Some(first_at_s), move |t| Some(t + period_s));
    starts
        .take_while(move |&t| n_zones > 0 && t < horizon_s)
        .enumerate()
        .map(move |(k, t)| (k % n_zones, t, (t + length_s).min(horizon_s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FlashCrowd;
    use acorn_core::AcornConfig;
    use acorn_topology::{Point, Wlan};

    /// Two 2-AP districts 400 m apart, 16 clients spread across both.
    fn wlan() -> Wlan {
        let mut aps = Vec::new();
        let mut clients = Vec::new();
        for d in [0.0, 400.0] {
            aps.push(Point::new(d, 0.0));
            aps.push(Point::new(d + 50.0, 0.0));
            for i in 0..8 {
                clients.push(Point::new(d + 5.0 * i as f64, 8.0 - i as f64));
            }
        }
        let mut w = Wlan::new(aps, clients, 17);
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn ctl() -> AcornController {
        AcornController::new(AcornConfig::default())
    }

    fn scenario(seed: u64) -> SoakScenario {
        let mut s = SoakScenario::new(wlan(), 4000.0, seed);
        s.reallocation_period_s = 900.0;
        s.probe_period_s = 50.0;
        s.workload = WorkloadSpec {
            base_rate_per_s: 1.0 / 25.0,
            diurnal_amplitude: 0.5,
            day_period_s: 2000.0,
            flash: vec![FlashCrowd {
                at_s: 1000.0,
                duration_s: 300.0,
                rate_multiplier: 4.0,
            }],
            ..WorkloadSpec::default()
        };
        s.watchdog = Some(WatchdogSpec {
            period_s: 40.0,
            graph_check_every: 4,
            fail_fast: true,
        });
        s.record_log = true;
        s
    }

    #[test]
    fn soak_runs_clean_and_is_reproducible() {
        let a = scenario(7).run(&ctl());
        let b = scenario(7).run(&ctl());
        assert_eq!(a.log, b.log);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.violations, 0, "healthy run must not trip the watchdog");
        assert!(a.checks > 50, "watchdog ran: {}", a.checks);
        assert!(a.counter("sessions.arrivals") > 20);
        assert!(a.counter("sessions.departures") > 0);
        assert!(a.counter("workload.thinned") > 0, "thinning must reject");
        assert!(a.counter("watchdog.graph_checks") > 0);
        assert!(!a.realloc.is_empty());
    }

    #[test]
    fn sketches_and_series_stay_bounded() {
        let r = scenario(11).run(&ctl());
        let net = r.sketch(crate::probe::NETWORK_BPS).expect("probe sketch");
        assert_eq!(r.counter("probe.samples"), net.count);
        assert!(net.count > 50);
        assert!(net.retained <= net.count, "{net:?}");
        let clients = r.sketch(crate::probe::CLIENT_BPS).expect("client sketch");
        assert!(clients.count > net.count, "per-client outweighs per-net");
        assert!(clients.p50.is_some());
        let series = r.series(crate::probe::NETWORK_BPS).expect("probe series");
        assert_eq!(series.total, net.count, "series total counts everything");
        assert!(r.quality_drift().is_some());
        assert!(r.mean_network_bps() > 0.0);
    }

    #[test]
    fn sabotage_trips_the_watchdog_with_replay_coordinates() {
        let mut s = scenario(13);
        s.sabotage_at_s = Some(1500.0);
        let r = s.run(&ctl());
        assert!(r.violations >= 1, "watchdog must catch the corruption");
        assert_eq!(r.counter("watchdog.viol.cells"), r.violations);
        assert_eq!(r.gauge("watchdog.trip.code"), Some(2.0));
        assert_eq!(r.gauge("watchdog.trip.seed"), Some(13.0));
        let trip_t = r.gauge("watchdog.trip.t_s").expect("trip time recorded");
        assert!(trip_t >= 1500.0, "tripped after the sabotage: {trip_t}");
        // Fail-fast: the run stopped at the trip, well short of horizon.
        assert!(r.stats.end_time_s < 4000.0, "{:?}", r.stats);
    }

    #[test]
    fn fault_soak_fills_resilience_and_keeps_watchdog_quiet() {
        let mut s = scenario(19);
        s.faults = Some(FaultPlan {
            seed: 19,
            control_period_s: 25.0,
            ap_mttf_s: Some(400.0),
            ap_mttr_s: 700.0,
            max_crashes: 3,
            loss: 0.1,
            meas_nan: 0.05,
            ..FaultPlan::default()
        });
        let r = s.run_resilience(&ctl());
        let res = r.resilience.expect("fault soak carries resilience");
        assert!(res.crashes >= 1, "{res:?}");
        assert!(res.throughput_retained > 0.0, "{res:?}");
        assert_eq!(r.violations, 0, "faults are not invariant violations");
        assert!(r.realloc.iter().any(|rec| rec.degraded), "safe mode ran");
    }

    #[test]
    fn periodic_windows_cycle_zones_and_respect_horizon() {
        let p = periodic_partitions(3, 100.0, 500.0, 200.0, 2000.0);
        assert_eq!(p.len(), 4);
        assert_eq!(
            p.iter().map(|w| w.zone).collect::<Vec<_>>(),
            vec![0, 1, 2, 0]
        );
        assert!(p.iter().all(|w| w.until_s <= 2000.0));
        let c = periodic_crashes(2, 0.0, 300.0, 100.0, 1000.0);
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|w| w.restart_at_s <= 1000.0));
        assert!(periodic_partitions(0, 0.0, 10.0, 5.0, 100.0).is_empty());
    }
}
