//! The incremental ACORN world: the [`Incremental`] locality and the
//! [`CityScenario`] that runs the standard processes over it.
//!
//! [`Exact`](crate::acorn::Exact) re-derives the interference graph,
//! every cell's SNR list, and every beacon on each event — O(network) per
//! event, which caps it at a few hundred APs. [`Incremental`] keeps every
//! event handler local:
//!
//! * an AP [`SpatialGrid`] answers "which APs can hear this point?" in
//!   O(neighbours), so candidate sets and edge updates never scan every AP;
//! * the conflict graph is maintained *incrementally* — static AP–AP
//!   edges from the grid at build time, client-mediated edges as
//!   reference-counted entries updated on arrival/departure — and only
//!   materialized (O(V+E)) when an epoch needs a model;
//! * each associated client's HT20 SNR is cached: drift steps refresh it
//!   and the fault layer's measurement gates write through it;
//! * so is each cell's *advert* (DESIGN.md §13.4): its clients' delivery
//!   delays and its ATD, at both widths, kept current wherever an SNR or
//!   the cell's membership changes. Every reader but the epoch's width
//!   pass uses it; the access share `M` stays computed on demand;
//! * Algorithm 2 runs per connected component of the graph, with
//!   SNR→goodput queries served by the controller's memoized
//!   [`GoodputTable`](acorn_phy::GoodputTable) when one is attached.
//!
//! The [`world`](crate::world) module lists what this localizes relative
//! to the exact world. Per-client mobility is not part of this scenario
//! class: client positions are fixed for the run. The `City*` process
//! names are aliases of the processes both worlds share, kept because
//! existing callers build them by name.
//!
//! Determinism is inherited wholesale: handlers are sequential, the
//! client-edge multiset lives in `BTreeMap`s (ordered iteration), and the
//! only parallel section is the order-stable per-component restart
//! fan-out — so runs are bit-identical at any `ACORN_THREADS`.

use crate::cityfaults::CityFaultProcess;
use crate::faults::{run_with_golden_twin, FaultPlan};
use crate::sim::Simulation;
use crate::world::{
    AcornEvent, DriftProcess, DriftSpec, Locality, ReallocationTimer, ScenarioReport, SeedPolicy,
    SessionProcess, World,
};
use acorn_core::{choose_ap, AcornController, Candidate, ClientSnr, NetworkModel, ThroughputModel};
use acorn_obs::{RecordingSink, Sink};
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ClientId, InterferenceGraph, SpatialGrid, Wlan};
use acorn_traces::Session;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The incremental locality's structures.
pub struct Incremental {
    /// Association candidate radius (m).
    candidate_radius_m: f64,
    /// Spatial index over AP positions.
    grid: SpatialGrid,
    /// Static AP–AP conflict edges (both directions, ascending).
    static_adj: Vec<Vec<u32>>,
    /// Client-mediated conflict edges as reference counts: `via_adj[a]`
    /// maps neighbour `b` to the number of associated clients currently
    /// inducing the edge `a–b`. Symmetric.
    via_adj: Vec<BTreeMap<u32, u32>>,
    /// Active clients per AP, in association order.
    cells: Vec<Vec<u32>>,
    /// Cached HT20 SNR of each active client to its AP (refreshed on
    /// drift steps; meaningless for unassociated clients).
    client_snr20: Vec<f64>,
    /// Each active client's delivery delay to its AP at both widths
    /// (indexed by `width as usize`): `delays_from_snr` of its cached SNR.
    client_delays: Vec<[f64; 2]>,
    /// Each cell's ATD at both widths: its clients' cached delays summed
    /// in association order.
    cell_atd: Vec<[f64; 2]>,
    /// Associated-client count (the exact world scans `assoc`; at 10⁵
    /// clients that scan would dominate every event).
    active: usize,
}

/// Both widths, in `width as usize` order.
const WIDTHS: [ChannelWidth; 2] = [ChannelWidth::Ht20, ChannelWidth::Ht40];

/// The ATD at both widths of a cell's delays in association order: the
/// one summation every cached and every fresh ATD comes from.
fn atd_of<'a>(delays: impl Iterator<Item = &'a [f64; 2]> + Clone) -> [f64; 2] {
    [0, 1].map(|w| delays.clone().map(|d| d[w]).sum())
}

impl Incremental {
    /// Re-sums cell `ap`'s cached ATDs after a join, leave or member-SNR
    /// change.
    fn resum(&mut self, ap: usize) {
        let delays = &self.client_delays;
        self.cell_atd[ap] = atd_of(self.cells[ap].iter().map(|&c| &delays[c as usize]));
    }
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
        let r = wlan.radio.carrier_sense_range_m;
        let ap_points: Vec<_> = wlan.aps.iter().map(|a| a.pos).collect();
        let grid = SpatialGrid::build(&ap_points, r.max(1.0));
        let n = wlan.aps.len();
        let static_adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                grid.within(&wlan.aps[i].pos, r)
                    .into_iter()
                    .filter(|&j| j != i)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        let local = Incremental {
            candidate_radius_m,
            grid,
            static_adj,
            via_adj: vec![BTreeMap::new(); n],
            cells: vec![Vec::new(); n],
            client_snr20: vec![f64::NEG_INFINITY; wlan.clients.len()],
            client_delays: vec![[f64::INFINITY; 2]; wlan.clients.len()],
            cell_atd: vec![atd_of([].iter()); n],
            active: 0,
        };
        World::with_locality(wlan, ctl, seed, local)
    }

    /// The clients currently in `ap`'s cell, in association order.
    pub fn cell_clients(&self, ap: usize) -> &[u32] {
        &self.local.cells[ap]
    }

    /// The cached HT20 SNR of client `c` to its AP (meaningless for
    /// unassociated clients).
    pub fn client_snr20_cached(&self, c: usize) -> f64 {
        self.local.client_snr20[c]
    }

    /// Overwrites client `c`'s cached SNR — the measurement path a fault
    /// process drives (its outlier/NaN gates decide what lands here) —
    /// and, unless the value is bit-identical, its cached delays and its
    /// cell's ATDs.
    pub fn set_client_snr20(&mut self, c: usize, snr20_db: f64) {
        if self.local.client_snr20[c].to_bits() == snr20_db.to_bits() {
            return;
        }
        self.local.client_snr20[c] = snr20_db;
        self.local.client_delays[c] = self.ctl.delays_from_snr(snr20_db);
        if let Some(ap) = self.state.assoc[c] {
            self.local.resum(ap.0);
        }
    }

    /// Client `c`'s cached delivery delay to its AP at `width`.
    pub(crate) fn client_delay_s(&self, c: usize, width: ChannelWidth) -> f64 {
        self.local.client_delays[c][width as usize]
    }

    /// Whether the advert cache equals a fresh recomputation, bit for bit:
    /// every active client's delays at both widths and every cell's ATDs
    /// at both widths, from the cached SNRs with
    /// [`AcornController::delay_from_snr`]. The soak watchdog's invariant
    /// 6. Outside an epoch its table lookups feed no counter.
    pub fn advert_cache_matches(&self) -> bool {
        let bits = |d: &[f64; 2]| d.map(f64::to_bits);
        (0..self.wlan.aps.len()).all(|ap| {
            let fresh = self.fresh_delays(ap);
            let cell = self.local.cells[ap].iter();
            let cached = cell.map(|&c| &self.local.client_delays[c as usize]);
            bits(&atd_of(fresh.iter())) == bits(&self.local.cell_atd[ap])
                && cached.map(bits).eq(fresh.iter().map(bits))
        })
    }

    /// Cell `ap`'s delays at both widths from fresh
    /// [`AcornController::delay_from_snr`] lookups of the cached SNRs.
    fn fresh_delays(&self, ap: usize) -> Vec<[f64; 2]> {
        let cell = self.local.cells[ap].iter();
        cell.map(|&c| {
            let snr = self.local.client_snr20[c as usize];
            WIDTHS.map(|w| self.ctl.delay_from_snr(snr, w))
        })
        .collect()
    }

    /// Materializes the current conflict graph — identical, edge for
    /// edge, to `wlan.interference_graph(&state.assoc)`: the static grid
    /// edges plus every positively-referenced client-mediated edge.
    pub fn graph_snapshot(&self) -> InterferenceGraph {
        let n = self.wlan.aps.len();
        let mut g = InterferenceGraph::new(n);
        for (i, nbs) in self.local.static_adj.iter().enumerate() {
            for &j in nbs.iter().filter(|&&j| (j as usize) > i) {
                g.add_edge(ApId(i), ApId(j as usize));
            }
        }
        for (a, nbs) in self.local.via_adj.iter().enumerate() {
            for (&b, &count) in nbs.range((a as u32 + 1)..) {
                debug_assert!(count > 0, "zero-count edge left in via_adj");
                g.add_edge(ApId(a), ApId(b as usize));
            }
        }
        g
    }

    /// The paper's `M = 1/(|con|+1)` access share of `ap` under the
    /// current dynamic graph and *effective* assignments. With
    /// `live_only`, only live conflicting neighbours count — dead APs
    /// don't transmit, so they cost no airtime.
    pub fn access_share(&self, ap: usize, live_only: bool) -> f64 {
        let own = self.state.effective_assignment(ApId(ap));
        let static_adj = &self.local.static_adj[ap];
        let conflicts = |j: u32| {
            (!live_only || self.ap_up[j as usize])
                && own.conflicts(self.state.effective_assignment(ApId(j as usize)))
        };
        // Client-mediated neighbours already in static range count once.
        let con = static_adj.iter().filter(|&&j| conflicts(j)).count()
            + self.local.via_adj[ap]
                .keys()
                .filter(|&&j| static_adj.binary_search(&j).is_err() && conflicts(j))
                .count();
        1.0 / (con as f64 + 1.0)
    }

    /// Localized §5.2 width adaptation for one AP, from its cached ATDs.
    pub fn adapt_width_local(&mut self, ap: usize) {
        self.choose_width(ap, self.local.cell_atd[ap]);
    }

    /// The §5.2 choice for a bonded, non-empty cell from its ATDs at both
    /// widths ([`AcornController::choose_width`]; cell throughput at equal
    /// access share is `k·8·payload/ATD`, so widths compare by `1/ATD`).
    fn choose_width(&mut self, ap: usize, atd: [f64; 2]) {
        if self.state.assignments[ap].width() != ChannelWidth::Ht40
            || self.local.cells[ap].is_empty()
        {
            return;
        }
        let [t20, t40] = atd.map(f64::recip);
        let current = self.state.operating_width[ap];
        self.state.operating_width[ap] = self.ctl.choose_width(current, t20, t40);
    }

    /// Adds (+1) or removes (−1) the client-mediated edges client `c`
    /// induces between its owner `ap` and every other AP in carrier-sense
    /// range of the client.
    fn update_via_edges(&mut self, c: usize, ap: usize, delta: i32) {
        let r = self.wlan.radio.carrier_sense_range_m;
        let local = &mut self.local;
        for j in local.grid.within(&self.wlan.clients[c].pos, r) {
            if j == ap {
                continue;
            }
            for (x, y) in [(ap, j), (j, ap)] {
                if delta > 0 {
                    *local.via_adj[x].entry(y as u32).or_insert(0) += 1;
                } else {
                    let e = local.via_adj[x]
                        .get_mut(&(y as u32))
                        .expect("departing client's edge must exist");
                    *e -= 1;
                    if *e == 0 {
                        local.via_adj[x].remove(&(y as u32));
                    }
                }
            }
        }
    }

    /// Builds the throughput model from the maintained structures (the
    /// exact world's `build_model` re-derives cells by scanning every
    /// client per AP — O(aps·clients) — which this path exists to avoid).
    pub fn build_model(&self) -> NetworkModel {
        let graph = self.graph_snapshot();
        let cells: Vec<Vec<ClientSnr>> = self
            .local
            .cells
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|&c| ClientSnr {
                        client: c as usize,
                        snr20_db: self.local.client_snr20[c as usize],
                    })
                    .collect()
            })
            .collect();
        match self.ctl.table() {
            Some(t) => {
                NetworkModel::with_table(graph, cells, Arc::clone(t), self.ctl.config.payload_bytes)
            }
            None => NetworkModel::with_config(
                graph,
                cells,
                self.ctl.config.estimator,
                self.ctl.config.payload_bytes,
            ),
        }
    }

    /// One live cell's goodput under the localized model:
    /// `share · k · 8 · payload / ATD` at the cell's operating width.
    /// Zero for dead or empty cells. O(neighbours) — cheap enough for
    /// per-tick soak probes, unlike a full model build.
    pub fn cell_bps_up(&self, ap: usize) -> f64 {
        if !self.ap_up[ap] || self.local.cells[ap].is_empty() {
            return 0.0;
        }
        let atd = self.local.cell_atd[ap][self.state.operating_width[ap] as usize];
        if !(atd > 0.0) || !atd.is_finite() {
            return 0.0;
        }
        let k = self.local.cells[ap].len() as f64;
        self.access_share(ap, true) * k * 8.0 * self.ctl.config.payload_bytes as f64 / atd
    }
}

impl Locality for Incremental {
    type Epoch = NetworkModel;
    const PER_COMPONENT: bool = true;

    fn associate<S: Sink>(w: &mut CityWorld, c: usize, sink: &S) -> Option<(usize, f64)> {
        let pos = w.wlan.clients[c].pos;
        let mut candidates = Vec::new();
        let mut links = Vec::new();
        for ap in w.local.grid.within(&pos, w.local.candidate_radius_m) {
            if !w.ap_up[ap] {
                continue;
            }
            let snr20 = w.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            if snr20 < w.ctl.config.association_snr_floor_db {
                continue;
            }
            let width = w.state.operating_width[ap];
            let delays = w.ctl.delays_from_snr(snr20);
            let d_u = delays[width as usize];
            candidates.push(Candidate {
                ap: ApId(ap),
                k_including_u: w.local.cells[ap].len() + 1,
                access_share: w.access_share(ap, false),
                atd_including_u_s: w.local.cell_atd[ap][width as usize] + d_u,
                delay_u_s: d_u,
            });
            links.push((snr20, delays));
        }
        let i = choose_ap(&candidates, sink)?;
        let ap = candidates[i].ap.0;
        w.state.assoc[c] = Some(ApId(ap));
        (w.local.client_snr20[c], w.local.client_delays[c]) = links[i];
        w.local.cells[ap].push(c as u32);
        w.local.resum(ap);
        w.local.active += 1;
        w.update_via_edges(c, ap, 1);
        Some((ap, candidates[i].delay_u_s))
    }

    /// Unwinds a departing client's edges and cell entry.
    fn deassociate(w: &mut CityWorld, c: usize) -> Option<usize> {
        let ap = w.state.assoc[c]?.0;
        w.update_via_edges(c, ap, -1);
        w.local.cells[ap].retain(|&x| x as usize != c);
        w.local.resum(ap);
        w.state.assoc[c] = None;
        w.local.active -= 1;
        Some(ap)
    }

    fn active_clients(w: &CityWorld) -> usize {
        w.local.active
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
                    w.local.cell_atd[ap].map(f64::to_bits),
                    "stale cached ATDs at AP {ap}"
                );
                w.choose_width(ap, atd);
            }
        }
    }

    /// Refreshes every active client's cached SNR, delays and cell ATDs
    /// (a drift step decorrelated the shadowing draws).
    fn refresh_links(w: &mut CityWorld) {
        let local = &mut w.local;
        for (ap, cell) in local.cells.iter().enumerate() {
            for &c in cell {
                let snr = w
                    .wlan
                    .snr_db(ApId(ap), ClientId(c as usize), ChannelWidth::Ht20);
                local.client_snr20[c as usize] = snr;
                local.client_delays[c as usize] = w.ctl.delays_from_snr(snr);
            }
            let delays = &local.client_delays;
            local.cell_atd[ap] = atd_of(cell.iter().map(|&c| &delays[c as usize]));
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
        assert!(world.local.via_adj.iter().all(|m| m.is_empty()));
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
        let atd = world.local.cell_atd[ap];
        world.local.cell_atd[ap][1] = f64::from_bits(atd[1].to_bits() + 1);
        assert!(
            !world.advert_cache_matches(),
            "a stale cell ATD went unseen"
        );
        world.local.cell_atd[ap] = atd;
        assert!(world.advert_cache_matches());

        // One client's HT20 delay off, its cell's sums intact.
        world.local.client_delays[0][0] *= 1.5;
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
