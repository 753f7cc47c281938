//! The incremental ACORN world: the [`Incremental`] locality and the
//! [`CityScenario`] that runs the standard processes over it.
//!
//! [`Incremental`] keeps every event handler local, on the structures
//! the [`World`] maintains for both localities (the AP
//! [`SpatialGrid`](acorn_topology::SpatialGrid), the reference-counted
//! conflict graph, the cells and their adverts):
//!
//! * a client probes only the live APs within the candidate radius, a
//!   radius query on the grid, so candidate sets never scan every AP;
//! * a cell lists its clients in association order, and the §5.2 width
//!   fallback after a cell change revisits only that cell;
//! * the fault layer measures the cached SNRs and its gates only count
//!   what they reject ([`CityFaultProcess`]), so no fault writes a link;
//! * Algorithm 2 runs per connected component of the graph, with
//!   SNR→goodput queries served by the controller's memoized
//!   [`GoodputTable`](acorn_phy::GoodputTable) when one is attached.
//!
//! The [`world`](crate::world) module lists what this localizes relative
//! to the exact world. The `City*` process names are aliases of the
//! processes both worlds share, kept because existing callers build them
//! by name.
//!
//! Determinism is inherited wholesale: handlers are sequential, the
//! client-edge multiset lives in `BTreeMap`s (ordered iteration), and the
//! only parallel section is the order-stable per-component restart
//! fan-out — so runs are bit-identical at any `ACORN_THREADS`.

use crate::cityfaults::CityFaultProcess;
use crate::faults::{run_with_golden_twin, FaultPlan};
use crate::sim::Simulation;
use crate::world::{
    atd_of, AcornEvent, DriftProcess, DriftSpec, Locality, ReallocationTimer, ScenarioReport,
    SeedPolicy, SessionProcess, World,
};
use acorn_core::{AcornController, NetworkModel, ThroughputModel};
use acorn_obs::RecordingSink;
use acorn_phy::ChannelWidth;
use acorn_topology::Wlan;
use acorn_traces::Session;

/// The incremental locality's own parameter: the association candidate
/// radius (m).
pub struct Incremental {
    candidate_radius_m: f64,
}

/// The incremental (city-scale) world.
pub type CityWorld = World<Incremental>;

/// Session churn over a [`CityWorld`]: the one [`SessionProcess`].
pub type CitySessionProcess = SessionProcess;
/// Periodic sharded re-allocation over a [`CityWorld`]: the one
/// [`ReallocationTimer`].
pub type CityReallocationTimer = ReallocationTimer;
/// Shadowing drift over a [`CityWorld`]: the one [`DriftProcess`].
pub type CityDriftProcess = DriftProcess;

impl CityWorld {
    /// Builds the world: spatial index, static AP–AP edges, fresh
    /// controller state seeded from `seed`.
    pub fn new(wlan: Wlan, ctl: AcornController, candidate_radius_m: f64, seed: u64) -> CityWorld {
        assert!(
            candidate_radius_m > 0.0,
            "candidate radius must be positive"
        );
        let local = Incremental { candidate_radius_m };
        World::with_locality(wlan, ctl, seed, local)
    }

    /// Localized §5.2 width adaptation for one AP, from its cached ATDs.
    pub fn adapt_width_local(&mut self, ap: usize) {
        self.choose_width(ap, self.cell_atd[ap]);
    }

    /// The §5.2 choice for a bonded, non-empty cell from its ATDs at both
    /// widths ([`AcornController::choose_width`]; cell throughput at equal
    /// access share is `k·8·payload/ATD`, so widths compare by `1/ATD`).
    fn choose_width(&mut self, ap: usize, atd: [f64; 2]) {
        if self.state.assignments[ap].width() != ChannelWidth::Ht40
            || self.cell_clients(ap).is_empty()
        {
            return;
        }
        let [t20, t40] = atd.map(f64::recip);
        let current = self.state.operating_width[ap];
        self.state.operating_width[ap] = self.ctl.choose_width(current, t20, t40);
    }

    /// One live cell's goodput under the localized model:
    /// `share · k · 8 · payload / ATD` at the cell's operating width, with
    /// the share over live neighbours only. Zero for dead or empty cells.
    /// O(neighbours) — cheap enough for per-tick soak probes, unlike a
    /// full model build.
    pub fn cell_bps_up(&self, ap: usize) -> f64 {
        if !self.ap_up[ap] || self.cell_clients(ap).is_empty() {
            return 0.0;
        }
        let atd = self.cell_atd[ap][self.state.operating_width[ap] as usize];
        if !(atd > 0.0) || !atd.is_finite() {
            return 0.0;
        }
        let k = self.cell_clients(ap).len() as f64;
        self.access_share(ap, true) * k * 8.0 * self.ctl.config.payload_bytes as f64 / atd
    }
}

impl Locality for Incremental {
    type Epoch = NetworkModel;
    const PER_COMPONENT: bool = true;
    const ASSOCIATION_ORDER: bool = true;

    fn probe_scope(w: &CityWorld, c: usize) -> Vec<usize> {
        w.grid
            .within(&w.wlan.clients[c].pos, w.local.candidate_radius_m)
    }

    fn adapt_after_change(w: &mut CityWorld, ap: Option<usize>) {
        if let Some(ap) = ap {
            w.adapt_width_local(ap);
        }
    }

    /// The epoch's width pass sums fresh [`AcornController::delay_from_snr`]
    /// lookups rather than reading the cache: inside an epoch they count
    /// into `phy.table.hits`, which every fingerprint hashes. The sums
    /// equal the cached ATDs bit for bit.
    fn adapt_all(w: &mut CityWorld) {
        for ap in 0..w.wlan.aps.len() {
            if w.state.assignments[ap].width() == ChannelWidth::Ht40 {
                let atd = atd_of(w.fresh_delays(ap).iter());
                debug_assert_eq!(
                    atd.map(f64::to_bits),
                    w.cell_atd[ap].map(f64::to_bits),
                    "stale cached ATDs at AP {ap}"
                );
                w.choose_width(ap, atd);
            }
        }
    }

    /// The sum of [`CityWorld::cell_bps_up`] — what the soak probe
    /// records, and what `throughput_retained` compares across fault
    /// profiles.
    fn live_bps(w: &CityWorld) -> f64 {
        (0..w.wlan.aps.len()).map(|ap| w.cell_bps_up(ap)).sum()
    }

    fn open_epoch(w: &CityWorld) -> NetworkModel {
        w.build_model()
    }

    fn objective_bps(w: &CityWorld, model: &NetworkModel) -> f64 {
        model.total_bps(&w.state.assignments)
    }

    fn epoch_model(_w: &CityWorld, model: NetworkModel) -> NetworkModel {
        model
    }

    /// The width pass's goodput-table lookups belong to this epoch too:
    /// flushes what the model's table cursor has seen since
    /// `reallocate`'s own flush.
    fn close_epoch(model: &NetworkModel, _total_bps: f64, sink: &RecordingSink) {
        model.flush_stats_into(sink);
    }
}

/// A city-scale scenario: session churn + periodic sharded re-allocation
/// (+ optional shadowing drift) over one deployment, driven through the
/// incremental [`CityWorld`]. Process registration order is fixed
/// (sessions, timer, drift), pinning the dispatch order of simultaneous
/// events.
#[derive(Clone)]
pub struct CityScenario {
    /// The deployment — typically `acorn_sim::scenario::city_grid`
    /// shaped. Any `Wlan` works, but the sharding win needs a conflict
    /// graph that decomposes into components.
    pub wlan: Wlan,
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Re-allocation period `T` (s).
    pub reallocation_period_s: f64,
    /// Restarts per shard per re-allocation epoch.
    pub restarts: usize,
    /// Association candidate radius (m).
    pub candidate_radius_m: f64,
    /// Run the localized width adaptation after cell changes and epochs.
    pub adapt_widths: bool,
    /// Optional shadowing drift.
    pub drift: Option<DriftSpec>,
    /// Optional fault-injection layer (AP crash/restart, measurement
    /// faults, beacon gauntlet). Setting it (even to a benign plan)
    /// switches the re-allocation timer to safe mode and epoch seeds to
    /// the sequential policy (for twin comparability).
    pub faults: Option<FaultPlan>,
    /// Master seed (initial assignment + per-epoch restart streams).
    pub seed: u64,
    /// Record the executed-event log (costs a `String` per event — avoid
    /// at full scale).
    pub record_log: bool,
}

/// What a [`CityScenario`] run produced.
pub type CityReport = ScenarioReport<Incremental>;

impl CityScenario {
    /// Runs the scenario under `ctl` to its horizon.
    pub fn run(&self, ctl: &AcornController) -> CityReport {
        let world = CityWorld::new(
            self.wlan.clone(),
            ctl.clone(),
            self.candidate_radius_m,
            self.seed,
        );
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
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
        if let Some(d) = self.drift {
            sim.add_process(Box::new(d.process(self.horizon_s)));
        }
        // The fault process registers *last* so the benign event schedule
        // (and every pre-existing golden fingerprint) is untouched when it
        // is absent.
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(CityFaultProcess::new(plan, self.horizon_s)));
        }
        ScenarioReport::run(sim, self.horizon_s, self.faults.is_some())
    }

    /// Runs the scenario under its fault plan and under the plan's
    /// fault-free twin ([`run_with_golden_twin`]) and returns the faulty
    /// report with its golden-comparison fields filled in.
    pub fn run_resilience(&self, ctl: &AcornController) -> CityReport {
        let with_plan = |plan| CityScenario {
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
    use acorn_phy::estimator::LinkQualityEstimator;
    use acorn_phy::GoodputTable;
    use acorn_topology::Point;
    use std::sync::Arc;

    /// Two 2-AP districts 400 m apart (mirroring the `city_grid` layout
    /// without depending on `acorn-sim`), clients near each district.
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

    fn sessions() -> Vec<Session> {
        (0..6)
            .map(|c| Session {
                client: c,
                start_s: 5.0 + 10.0 * c as f64,
                duration_s: 400.0 + 50.0 * c as f64,
            })
            .collect()
    }

    fn scenario(seed: u64) -> CityScenario {
        CityScenario {
            wlan: wlan(),
            sessions: sessions(),
            horizon_s: 900.0,
            reallocation_period_s: 300.0,
            restarts: 2,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults: None,
            seed,
            record_log: true,
        }
    }

    fn table_ctl() -> AcornController {
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        AcornController::with_table(AcornConfig::default(), table)
    }

    #[test]
    fn world_graph_matches_the_exact_interference_graph() {
        let w = wlan();
        let ctl = AcornController::new(AcornConfig::default());
        let mut world = CityWorld::new(w, ctl, 120.0, 1);
        // Empty association: snapshot must equal the AP-only graph.
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        // Associate everyone, then the graph must still match exactly.
        let sink = RecordingSink::new();
        for c in 0..world.wlan.clients.len() {
            world.associate(c, &sink);
        }
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        // Unwinding departures restores the AP-only graph.
        for c in 0..world.wlan.clients.len() {
            world.deassociate(c);
        }
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&vec![None; 6])
        );
        assert!(world.via_adj.iter().all(|m| m.is_empty()));
        assert_eq!(world.active_clients(), 0);
    }

    #[test]
    fn a_stale_advert_cache_is_caught() {
        let mut world = CityWorld::new(wlan(), table_ctl(), 120.0, 3);
        let sink = RecordingSink::new();
        for c in 0..world.wlan.clients.len() {
            world.associate(c, &sink);
        }
        assert!(world.advert_cache_matches());
        let ap = world.state.assoc[0].expect("client 0 found an AP").0;

        // One ulp off one cell's HT40 ATD.
        let atd = world.cell_atd[ap];
        world.cell_atd[ap][1] = f64::from_bits(atd[1].to_bits() + 1);
        assert!(
            !world.advert_cache_matches(),
            "a stale cell ATD went unseen"
        );
        world.cell_atd[ap] = atd;
        assert!(world.advert_cache_matches());

        // One client's HT20 delay off, its cell's sums intact.
        world.client_delays[0][0] *= 1.5;
        assert!(!world.advert_cache_matches(), "a stale delay went unseen");
    }

    #[test]
    fn city_runs_and_reallocates_per_shard() {
        let ctl = table_ctl();
        let r = scenario(7).run(&ctl);
        // 6 arrivals + 6 departures (some clamped to horizon) + 2
        // reallocs (300, 600) + 3 drift steps (250, 500, 750).
        assert_eq!(r.realloc.len(), 2);
        let tel = &r.telemetry;
        let counter = |n: &str| {
            tel.counters
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("sessions.arrivals"), 6);
        assert_eq!(counter("sessions.departures"), 6);
        assert_eq!(counter("reallocations"), 2);
        assert_eq!(counter("drift.steps"), 3);
        // Two districts → two shards per epoch.
        assert_eq!(counter(acorn_obs::names::ALLOC_SHARDS), 4);
        assert!(counter(acorn_obs::names::TABLE_HITS) > 0);
        // Every client found a home in its own district.
        assert!(r.realloc[1].active_clients > 0);
        assert!(r.final_state.assoc.iter().all(|a| a.is_none()));
    }

    #[test]
    fn city_is_reproducible() {
        // A fresh table per run: the table's hit/rebuild counters are
        // process-global (drained at each flush), so telemetry equality
        // needs each run to own its table — exactly how the bench and
        // determinism harnesses use it.
        let a = scenario(7).run(&table_ctl());
        let b = scenario(7).run(&table_ctl());
        assert_eq!(a.log, b.log);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn clients_associate_within_their_district() {
        let w = wlan();
        let ctl = AcornController::new(AcornConfig::default());
        let mut world = CityWorld::new(w, ctl, 120.0, 3);
        let sink = RecordingSink::new();
        for c in 0..6 {
            world.associate(c, &sink);
        }
        // Clients 0,1,4 sit near district 0 (APs 0–1); 2,3,5 near
        // district 1 (APs 2–3).
        for (c, aps) in [(0, [0, 1]), (1, [0, 1]), (4, [0, 1])] {
            assert!(aps.contains(&world.state.assoc[c].unwrap().0));
        }
        for (c, aps) in [(2, [2, 3]), (3, [2, 3]), (5, [2, 3])] {
            assert!(aps.contains(&world.state.assoc[c].unwrap().0));
        }
    }
}
