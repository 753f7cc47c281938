//! One ACORN world, written once and generic over *locality*, and the
//! standard processes that drive it.
//!
//! ACORN's operating loop is one mechanism: Algorithm 1 on each arrival,
//! the §5.2 width fallback after each cell change, and Algorithm 2 every
//! `T` ("we run our channel allocation algorithm every 30 minutes",
//! §4.2). [`World`] declares the state that loop works on once, and the
//! processes here drive it for every [`Locality`]:
//!
//! * [`SessionProcess`] — WLAN session arrivals/departures from a trace
//!   (§3's CRAWDAD analysis), driving Algorithm 1 association.
//! * [`ReallocationTimer`] — the every-`T` Algorithm 2 re-run, in safe
//!   mode while APs are down. Restart fan-out rides the evaluation
//!   engine's thread pool via [`AcornController::reallocate`], and
//!   per-epoch seeds come from a [`SeedPolicy`], so results are
//!   bit-identical at any `ACORN_THREADS`.
//! * [`MobilityProcess`] — one client walking a [`Trajectory`].
//! * [`DriftProcess`] — slow environmental shadowing drift (the
//!   [`drift_phase`](acorn_topology::pathloss::LogDistance::drift_phase)
//!   rotation): link gains decorrelate over hours while every draw stays a
//!   pure function of the seed.
//!
//! The world also keeps, once for every locality, the structures each
//! event reads instead of re-deriving them: an AP [`SpatialGrid`], the
//! conflict graph as static AP–AP edges plus reference-counted
//! client-mediated edges (materialized by [`World::graph_snapshot`] only
//! when an epoch builds its model), each AP's cell, and each cell's
//! *advert* (DESIGN.md §13.4) — every associated client's cached HT20
//! SNR and delivery delays at both widths, and the cell's ATD at both
//! widths. One join and one leave ([`World::associate`],
//! [`World::deassociate`]), one [`World::refresh_links`] and one
//! [`World::move_client`] write them. Every SNR they cache is read from
//! the deployment, so a cached SNR always equals `wlan.snr_db` bit for
//! bit ([`World::advert_cache_matches`] checks it with the adverts). The
//! fault layer measures the cached SNRs and writes no cache.
//!
//! An AP's access share depends only on its conflict-graph neighbours
//! (the coupling Bellalta et al., arXiv:1412.0929, model), so worlds
//! differ only in what they treat as local. A [`Locality`] decides which
//! APs a client probes, in which order a cell sums its ATD, which cells a
//! width pass revisits, and how an epoch evaluates its objective:
//!
//! | | [`Exact`] ([`AcornWorld`](crate::AcornWorld)) | [`Incremental`] ([`CityWorld`](crate::CityWorld)) |
//! |---|---|---|
//! | Algorithm 1 probes | every live AP | live APs within the candidate radius |
//! | cell order | ascending client index | association order |
//! | §5.2 after a cell change | every AP, even when no AP was found | the changed cell |
//! | epoch objective | per-AP effective widths over live APs | the epoch model at assigned widths |
//! | epoch model | built after the objective | built first |
//! | Algorithm 2 | whole network | per connected component |
//!
//! Both build the epoch model with [`World::build_model`] and adapt every
//! AP's width after an epoch.
//!
//! [`Exact`]: crate::acorn::Exact
//! [`Incremental`]: crate::city::Incremental

use crate::faults::ResilienceReport;
use crate::sim::{mix_seed, Ctx, EventLog, Process, RunStats, Simulation};
use crate::telemetry::{Histogram, Telemetry, TelemetrySnapshot};
use acorn_core::{
    cell_throughput_from_atd_bps, choose_ap_bounded, AcornController, Candidate, ClientSnr,
    NetworkModel, NetworkState,
};
use acorn_obs::{names, RecordingSink, Sink};
use acorn_phy::ChannelWidth;
use acorn_topology::{
    ApId, ChannelAssignment, ClientId, InterferenceGraph, Point, SpatialGrid, Trajectory, Wlan,
};
use acorn_traces::Session;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// What differs between ACORN worlds. Everything else — the state and its
/// maintained structures, the processes, safe mode, the fault core — is
/// written once over [`World<L>`].
pub trait Locality: Sized {
    /// What an epoch evaluates its before/after objective on.
    type Epoch;
    /// Whether Algorithm 2 runs per connected component of the conflict
    /// graph rather than as one whole-network greedy.
    const PER_COMPONENT: bool;
    /// Whether a cell lists its clients in association order rather than
    /// in ascending client index. A cell's ATD sums its clients' delays
    /// in this order.
    const ASSOCIATION_ORDER: bool;

    /// The APs unassociated client `c` probes for Algorithm 1, in
    /// ascending index. [`World::candidates`] drops the dead ones and
    /// those below the association SNR floor.
    fn probe_scope(w: &World<Self>, c: usize) -> Vec<usize>;
    /// The §5.2 width fallback after an association change at `ap`
    /// (`None`: the change involved no AP).
    fn adapt_after_change(w: &mut World<Self>, ap: Option<usize>);
    /// The §5.2 width fallback at every AP (after an epoch).
    fn adapt_all(w: &mut World<Self>);
    /// Network goodput over live APs: the fault layer's per-round sample.
    fn live_bps(w: &World<Self>) -> f64;
    /// Opens a re-allocation epoch.
    fn open_epoch(w: &World<Self>) -> Self::Epoch;
    /// The epoch's objective (bits/s) under the current state.
    fn objective_bps(w: &World<Self>, epoch: &Self::Epoch) -> f64;
    /// The model Algorithm 2 re-allocates over.
    fn epoch_model(w: &World<Self>, epoch: Self::Epoch) -> NetworkModel;
    /// Records the epoch's own metrics into `sink`, after its width pass.
    fn close_epoch(model: &NetworkModel, total_bps: f64, sink: &RecordingSink);
}

/// The shared world every ACORN process operates on.
pub struct World<L> {
    /// The deployment. Client positions and the shadowing phase change
    /// only through [`World::move_client`] and [`DriftProcess`], which
    /// keep the cached links current.
    pub wlan: Wlan,
    /// The controller (its table, plan, and Algorithm 1/2 knobs).
    pub ctl: AcornController,
    /// Its mutable network state (assignments, associations, widths).
    /// Associations change only through [`World::associate`] and
    /// [`World::deassociate`].
    pub state: NetworkState,
    /// One record per re-allocation epoch, in firing order.
    pub realloc_log: Vec<ReallocRecord>,
    /// Liveness per AP — all `true` unless a fault process crashes one.
    pub ap_up: Vec<bool>,
    /// The last assignment + width vector a *healthy* re-allocation epoch
    /// deployed; safe mode restores it instead of re-optimizing on a
    /// partial view of the network.
    pub last_good: Option<(Vec<ChannelAssignment>, Vec<ChannelWidth>)>,
    /// Spatial index over AP positions.
    pub(crate) grid: SpatialGrid,
    /// Static AP–AP conflict edges (both directions, ascending).
    static_adj: Vec<Vec<u32>>,
    /// Client-mediated conflict edges as reference counts: `via_adj[a]`
    /// maps neighbour `b` to the number of associated clients currently
    /// inducing the edge `a–b`. Symmetric.
    pub(crate) via_adj: Vec<BTreeMap<u32, u32>>,
    /// Associated clients per AP, in the order
    /// [`Locality::ASSOCIATION_ORDER`] selects.
    cells: Vec<Vec<u32>>,
    /// Cached HT20 SNR of each associated client to its AP (meaningless
    /// for unassociated clients): `wlan.snr_db`, re-read whenever the
    /// link can have moved.
    client_snr20: Vec<f64>,
    /// Each associated client's delivery delay to its AP at both widths
    /// (indexed by `width as usize`): `delays_from_snr` of its cached SNR.
    pub(crate) client_delays: Vec<[f64; 2]>,
    /// Each cell's ATD at both widths: its clients' cached delays summed
    /// in cell order.
    pub(crate) cell_atd: Vec<[f64; 2]>,
    /// Associated-client count (a scan of `assoc` would dominate every
    /// event at 10⁵ clients).
    active: usize,
    /// The locality's own parameters.
    pub(crate) local: L,
}

/// Both widths, in `width as usize` order.
const WIDTHS: [ChannelWidth; 2] = [ChannelWidth::Ht20, ChannelWidth::Ht40];

/// The ATD at both widths of a cell's delays in cell order: the one
/// summation every cached and every fresh ATD comes from.
pub(crate) fn atd_of<'a>(delays: impl Iterator<Item = &'a [f64; 2]> + Clone) -> [f64; 2] {
    [0, 1].map(|w| delays.clone().map(|d| d[w]).sum())
}

impl<L: Locality> World<L> {
    /// A world with a fresh controller state seeded from `seed`: spatial
    /// index, static AP–AP edges, empty cells.
    pub(crate) fn with_locality(wlan: Wlan, ctl: AcornController, seed: u64, local: L) -> Self {
        let state = ctl.new_state(&wlan, seed);
        let r = wlan.radio.carrier_sense_range_m;
        let ap_points: Vec<Point> = wlan.aps.iter().map(|a| a.pos).collect();
        let grid = SpatialGrid::build(&ap_points, r.max(1.0));
        let n_aps = wlan.aps.len();
        let static_adj = (0..n_aps)
            .map(|i| {
                grid.within(&wlan.aps[i].pos, r)
                    .into_iter()
                    .filter(|&j| j != i)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        let n_clients = wlan.clients.len();
        World {
            wlan,
            ctl,
            state,
            realloc_log: Vec::new(),
            ap_up: vec![true; n_aps],
            last_good: None,
            grid,
            static_adj,
            via_adj: vec![BTreeMap::new(); n_aps],
            cells: vec![Vec::new(); n_aps],
            client_snr20: vec![f64::NEG_INFINITY; n_clients],
            client_delays: vec![[f64::INFINITY; 2]; n_clients],
            cell_atd: vec![atd_of([].iter()); n_aps],
            active: 0,
            local,
        }
    }

    /// Clients currently associated.
    pub fn active_clients(&self) -> usize {
        self.active
    }

    /// Whether every AP is up.
    pub fn all_up(&self) -> bool {
        self.ap_up.iter().all(|&u| u)
    }

    /// APs currently down.
    pub fn down_count(&self) -> usize {
        self.ap_up.iter().filter(|&&u| !u).count()
    }

    /// The clients currently in `ap`'s cell, in cell order.
    pub fn cell_clients(&self, ap: usize) -> &[u32] {
        &self.cells[ap]
    }

    /// The cached HT20 SNR of client `c` to its AP (meaningless for
    /// unassociated clients).
    pub fn client_snr20_cached(&self, c: usize) -> f64 {
        self.client_snr20[c]
    }

    /// The cached delivery delays of client `c` to its AP at both widths,
    /// indexed by `width as usize` (meaningless for unassociated clients).
    pub fn client_delays_cached(&self, c: usize) -> [f64; 2] {
        self.client_delays[c]
    }

    /// Whether the link and advert caches equal a fresh recomputation,
    /// bit for bit: every active client's cached HT20 SNR against
    /// `wlan.snr_db` to its AP, and its delays at both widths and every
    /// cell's ATDs at both widths against [`AcornController::delay_from_snr`]
    /// of the cached SNRs. The soak watchdog's invariant 6. Outside an
    /// epoch its table lookups feed no counter.
    pub fn advert_cache_matches(&self) -> bool {
        let bits = |d: &[f64; 2]| d.map(f64::to_bits);
        (0..self.wlan.aps.len()).all(|ap| {
            let cell = || self.cells[ap].iter().map(|&c| c as usize);
            let link = |c| self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            let fresh = self.fresh_delays(ap);
            cell().all(|c| self.client_snr20[c].to_bits() == link(c).to_bits())
                && bits(&atd_of(fresh.iter())) == bits(&self.cell_atd[ap])
                && cell()
                    .map(|c| bits(&self.client_delays[c]))
                    .eq(fresh.iter().map(bits))
        })
    }

    /// Cell `ap`'s delays at both widths from fresh
    /// [`AcornController::delay_from_snr`] lookups of the cached SNRs.
    pub(crate) fn fresh_delays(&self, ap: usize) -> Vec<[f64; 2]> {
        let cell = self.cells[ap].iter();
        cell.map(|&c| {
            let snr = self.client_snr20[c as usize];
            WIDTHS.map(|w| self.ctl.delay_from_snr(snr, w))
        })
        .collect()
    }

    /// Materializes the current conflict graph — identical, edge for
    /// edge, to `wlan.interference_graph(&state.assoc)`: the static grid
    /// edges plus every positively-referenced client-mediated edge.
    pub fn graph_snapshot(&self) -> InterferenceGraph {
        let mut g = InterferenceGraph::new(self.wlan.aps.len());
        for (i, nbs) in self.static_adj.iter().enumerate() {
            for &j in nbs.iter().filter(|&&j| (j as usize) > i) {
                g.add_edge(ApId(i), ApId(j as usize));
            }
        }
        for (a, nbs) in self.via_adj.iter().enumerate() {
            for (&b, &count) in nbs.range((a as u32 + 1)..) {
                debug_assert!(count > 0, "zero-count edge left in via_adj");
                g.add_edge(ApId(a), ApId(b as usize));
            }
        }
        g
    }

    /// The paper's `M = 1/(|con|+1)` access share of `ap` under the
    /// current conflict graph and *effective* assignments. With
    /// `live_only`, only live conflicting neighbours count — dead APs
    /// don't transmit, so they cost no airtime.
    pub fn access_share(&self, ap: usize, live_only: bool) -> f64 {
        let own = self.state.effective_assignment(ApId(ap));
        let static_adj = &self.static_adj[ap];
        let conflicts = |j: u32| {
            (!live_only || self.ap_up[j as usize])
                && own.conflicts(self.state.effective_assignment(ApId(j as usize)))
        };
        // Client-mediated neighbours already in static range count once.
        let con = static_adj.iter().filter(|&&j| conflicts(j)).count()
            + self.via_adj[ap]
                .keys()
                .filter(|&&j| static_adj.binary_search(&j).is_err() && conflicts(j))
                .count();
        1.0 / (con as f64 + 1.0)
    }

    /// Cell `ap`'s goodput at `width` and access share `m`, from its
    /// cached ATD through `CellAirtime`'s own formula
    /// ([`cell_throughput_from_atd_bps`]).
    pub(crate) fn cell_bps(&self, ap: usize, width: ChannelWidth, m: f64) -> f64 {
        let atd = self.cell_atd[ap][width as usize];
        cell_throughput_from_atd_bps(self.cells[ap].len(), atd, self.ctl.config.payload_bytes, m)
    }

    /// Builds the throughput model from the maintained graph and the
    /// cached SNRs, cells in cell order — the one model build of an epoch.
    pub fn build_model(&self) -> NetworkModel {
        let graph = self.graph_snapshot();
        let cells: Vec<Vec<ClientSnr>> = self
            .cells
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|&c| ClientSnr {
                        client: c as usize,
                        snr20_db: self.client_snr20[c as usize],
                    })
                    .collect()
            })
            .collect();
        let payload = self.ctl.config.payload_bytes;
        match self.ctl.table() {
            Some(t) => NetworkModel::with_table(graph, cells, Arc::clone(t), payload),
            None => NetworkModel::with_config(graph, cells, self.ctl.config.estimator, payload),
        }
    }

    /// Algorithm 1's candidate set for unassociated client `c`: each live
    /// AP of the locality's probe scope whose HT20 SNR clears the
    /// association floor, with `c` provisionally counted in — one
    /// [`AcornController::delay_from_snr`] at the AP's operating width,
    /// the cell's size and cached ATD, and the AP's access share over all
    /// its neighbours.
    pub fn candidates(&self, c: usize) -> Vec<Candidate> {
        self.probe(c, |_, snr20, width| self.ctl.delay_from_snr(snr20, width))
    }

    /// The candidate set with `c`'s delay at each AP from `delay(ap, snr20,
    /// width)`.
    fn probe(&self, c: usize, delay: impl Fn(usize, f64, ChannelWidth) -> f64) -> Vec<Candidate> {
        let mut out = Vec::new();
        for ap in L::probe_scope(self, c) {
            if !self.ap_up[ap] {
                continue;
            }
            let snr20 = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            if snr20 < self.ctl.config.association_snr_floor_db {
                continue;
            }
            let width = self.state.operating_width[ap];
            let d_u = delay(ap, snr20, width);
            out.push(Candidate {
                ap: ApId(ap),
                k_including_u: self.cells[ap].len() + 1,
                access_share: self.access_share(ap, false),
                atd_including_u_s: self.cell_atd[ap][width as usize] + d_u,
                delay_u_s: d_u,
            });
        }
        out
    }

    /// Algorithm 1 for unassociated client `c` over the locality's
    /// candidate set, then the join: its cell entry, its client-mediated
    /// edges and its cached link. Dead APs don't beacon, so they are
    /// never candidates. An empty cell enters the ranking at
    /// [`AcornController::delay_floor_s`] and is searched only if it
    /// could win ([`choose_ap_bounded`]), so the choice is
    /// [`choose_ap`](acorn_core::choose_ap)'s over [`World::candidates`].
    /// Returns the chosen AP and the client's own delivery delay there,
    /// recording candidate metrics into `sink`.
    pub fn associate<S: Sink>(&mut self, c: usize, sink: &S) -> Option<(usize, f64)> {
        debug_assert!(
            self.state.assoc[c].is_none(),
            "client {c} is already associated"
        );
        let mut candidates = self.probe(c, |ap, snr20, width| {
            if self.cells[ap].is_empty() {
                self.ctl.delay_floor_s(width)
            } else {
                self.ctl.delay_from_snr(snr20, width)
            }
        });
        let search = |cand: &Candidate| {
            let snr20 = self.wlan.snr_db(cand.ap, ClientId(c), ChannelWidth::Ht20);
            let width = self.state.operating_width[cand.ap.0];
            self.ctl.delay_from_snr(snr20, width)
        };
        let chosen = choose_ap_bounded(&mut candidates, search, sink)?;
        let (ap, delay) = (candidates[chosen].ap.0, candidates[chosen].delay_u_s);
        self.state.assoc[c] = Some(ApId(ap));
        let cell = &mut self.cells[ap];
        let at = if L::ASSOCIATION_ORDER {
            cell.len()
        } else {
            cell.partition_point(|&x| (x as usize) < c)
        };
        cell.insert(at, c as u32);
        self.active += 1;
        self.update_via_edges(c, ap, 1);
        let width = self.state.operating_width[ap];
        self.refresh_link(c, ap, Some((width, delay)));
        Some((ap, delay))
    }

    /// Removes client `c`: unwinds its edges and its cell entry. Returns
    /// its former AP.
    pub fn deassociate(&mut self, c: usize) -> Option<usize> {
        let ap = self.state.assoc[c]?.0;
        self.update_via_edges(c, ap, -1);
        self.cells[ap].retain(|&x| x as usize != c);
        self.resum(ap);
        self.state.assoc[c] = None;
        self.active -= 1;
        Some(ap)
    }

    /// Moves client `c` to `pos`. An associated client leaves its
    /// client-mediated edges, moves, rejoins them from its new position
    /// and re-reads its link.
    pub fn move_client(&mut self, c: usize, pos: Point) {
        let Some(ApId(ap)) = self.state.assoc[c] else {
            self.wlan.clients[c].pos = pos;
            return;
        };
        self.update_via_edges(c, ap, -1);
        self.wlan.clients[c].pos = pos;
        self.update_via_edges(c, ap, 1);
        self.refresh_link(c, ap, None);
    }

    /// Re-reads every associated client's HT20 SNR and refreshes its
    /// cached delays and its cell's ATDs (a drift step decorrelated the
    /// shadowing draws).
    pub fn refresh_links(&mut self) {
        for (ap, cell) in self.cells.iter().enumerate() {
            for &c in cell {
                let c = c as usize;
                let snr = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
                self.client_snr20[c] = snr;
                self.client_delays[c] = self.ctl.delays_from_snr(snr);
            }
            let delays = &self.client_delays;
            self.cell_atd[ap] = atd_of(cell.iter().map(|&c| &delays[c as usize]));
        }
    }

    /// Re-reads associated client `c`'s HT20 SNR to its AP `ap`, caches
    /// it with its delays at both widths, and re-sums the cell's ATDs.
    /// `known` is a delay already computed from this SNR at one width
    /// (the join's winning candidate at the AP's operating width); only
    /// the other width is then looked up.
    fn refresh_link(&mut self, c: usize, ap: usize, known: Option<(ChannelWidth, f64)>) {
        let snr = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
        self.client_snr20[c] = snr;
        self.client_delays[c] = match known {
            Some((width, delay)) => WIDTHS.map(|w| {
                if w == width {
                    delay
                } else {
                    self.ctl.delay_from_snr(snr, w)
                }
            }),
            None => self.ctl.delays_from_snr(snr),
        };
        self.resum(ap);
    }

    /// Re-sums cell `ap`'s cached ATDs after a join, leave or member-SNR
    /// change.
    fn resum(&mut self, ap: usize) {
        let delays = &self.client_delays;
        self.cell_atd[ap] = atd_of(self.cells[ap].iter().map(|&c| &delays[c as usize]));
    }

    /// Adds (+1) or removes (−1) the client-mediated edges client `c`
    /// induces between its owner `ap` and every other AP in carrier-sense
    /// range of the client.
    fn update_via_edges(&mut self, c: usize, ap: usize, delta: i32) {
        let r = self.wlan.radio.carrier_sense_range_m;
        for j in self.grid.within(&self.wlan.clients[c].pos, r) {
            if j == ap {
                continue;
            }
            for (x, y) in [(ap, j), (j, ap)] {
                if delta > 0 {
                    *self.via_adj[x].entry(y as u32).or_insert(0) += 1;
                } else {
                    let e = self.via_adj[x]
                        .get_mut(&(y as u32))
                        .expect("departing client's edge must exist");
                    *e -= 1;
                    if *e == 0 {
                        self.via_adj[x].remove(&(y as u32));
                    }
                }
            }
        }
    }

    /// A session starts: Algorithm 1 places client `c`, then (with
    /// `adapt_widths`) the §5.2 fallback revisits the locality's cells.
    /// Candidate-ranking metrics go through an ephemeral sink drained into
    /// `tel` — event handlers are sequential, so this is deterministic by
    /// construction. Records `sessions.arrivals` and the client's own
    /// delay at its AP into `association.delay_s` (the latency term
    /// Algorithm 1 optimizes). Returns the chosen AP.
    pub fn arrive(&mut self, c: usize, adapt_widths: bool, tel: &mut Telemetry) -> Option<usize> {
        let sink = RecordingSink::new();
        let chosen = self.associate(c, &sink);
        sink.drain_into(tel);
        if adapt_widths {
            L::adapt_after_change(self, chosen.map(|(ap, _)| ap));
        }
        tel.inc("sessions.arrivals");
        let (ap, delay) = chosen?;
        tel.observe("association.delay_s", delay);
        Some(ap)
    }

    /// A session ends: client `c` leaves, then (with `adapt_widths`) the
    /// §5.2 fallback revisits the locality's cells. Records
    /// `sessions.departures`. Returns the client's former AP.
    pub fn depart(&mut self, c: usize, adapt_widths: bool, tel: &mut Telemetry) -> Option<usize> {
        let ap = self.deassociate(c);
        if adapt_widths {
            L::adapt_after_change(self, ap);
        }
        tel.inc("sessions.departures");
        ap
    }

    /// Safe mode: a partial network means a partial view — any
    /// re-optimization now would chase phantom interference. Restores
    /// the last plan a healthy epoch deployed and sheds the risky 40 MHz
    /// bonds of live APs within carrier-sense range of a dead one (the
    /// static AP–AP edges).
    fn enter_safe_mode(&mut self) {
        if let Some((assignments, widths)) = self.last_good.clone() {
            self.state.assignments = assignments;
            self.state.operating_width = widths;
        }
        for (ap, nbs) in self.static_adj.iter().enumerate() {
            if self.ap_up[ap] && nbs.iter().any(|&n| !self.ap_up[n as usize]) {
                self.state.operating_width[ap] = ChannelWidth::Ht20;
            }
        }
    }
}

/// What one [`ReallocationTimer`] firing recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReallocRecord {
    /// Firing time (s).
    pub t_s: f64,
    /// Clients associated at that instant.
    pub active_clients: usize,
    /// Predicted network throughput before the re-allocation (bits/s).
    pub before_bps: f64,
    /// Predicted network throughput after (bits/s).
    pub after_bps: f64,
    /// Channel switches performed.
    pub switches: usize,
    /// Whether this epoch ran in safe mode (degraded network: the
    /// controller kept the last-known-good plan instead of re-optimizing).
    pub degraded: bool,
    /// APs down when the epoch fired (the watchdog cross-checks
    /// `degraded == (down_aps > 0)` on safe-mode-enabled runs).
    pub down_aps: usize,
}

/// Event payload shared by the standard processes. Every variant carries
/// plain data, so the whole scenario state is `(world, processes, queue)`
/// and nothing hides in closures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcornEvent {
    /// A session starts: `client` joins the WLAN.
    Arrive(usize),
    /// A session ends: `client` leaves.
    Depart(usize),
    /// Periodic Algorithm 2 re-allocation.
    Reallocate,
    /// Mobility position update + width re-evaluation.
    MobilitySample,
    /// One step of slow shadowing drift.
    DriftStep,
    /// An AP crashes (fault layer).
    ApCrash(usize),
    /// A crashed AP finishes repair and comes back cold (fault layer).
    ApRestart(usize),
    /// One control round: measurements, beacons, IAPP, CSA, detection
    /// (fault layer).
    ControlRound,
    /// A delayed control-message copy arrives (fault layer).
    DeliverMsg(u32),
    /// One streaming workload-generator tick (soak layer): draw the next
    /// arrival window without materializing a trace.
    WorkloadTick,
    /// One telemetry probe sample (soak layer): sketch-record goodput.
    ProbeSample,
    /// One online invariant check (soak layer).
    WatchdogCheck,
}

/// Drives Algorithm 1 association from a session trace, through
/// [`World::arrive`] and [`World::depart`].
///
/// At `start`, schedules an [`AcornEvent::Arrive`]/[`AcornEvent::Depart`]
/// pair per session (departures clamped to the horizon), in session
/// order — which fixes the dispatch order of simultaneous events to
/// match the trace order. A client is one station, so its sessions must
/// not overlap in that order; `start` rejects a trace where they do.
/// Telemetry: `sessions.arrivals` / `sessions.departures` counters, a
/// `clients.active` gauge, and the `association.delay_s` histogram.
pub struct SessionProcess {
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s); arrivals at or past it never fire.
    pub horizon_s: f64,
    /// Run the §5.2 width adaptation after every association change.
    pub adapt_widths: bool,
}

/// Panics unless every session's client exists in a deployment of
/// `n_clients` and no client has two sessions live at once. Events fire
/// in `(time, trace index)` order, so one client's sessions, sorted that
/// way, must each depart before the next arrives.
fn check_trace(sessions: &[Session], horizon_s: f64, n_clients: usize) {
    let mut order = Vec::with_capacity(sessions.len());
    for (i, s) in sessions.iter().enumerate() {
        assert!(
            s.client < n_clients,
            "session client {} has no position in the deployment",
            s.client
        );
        if s.start_s < horizon_s {
            order.push(i);
        }
    }
    order.sort_unstable_by(|&i, &j| {
        let (a, b) = (&sessions[i], &sessions[j]);
        (a.client.cmp(&b.client))
            .then(a.start_s.total_cmp(&b.start_s))
            .then(i.cmp(&j))
    });
    for pair in order.windows(2) {
        let (a, b) = (&sessions[pair[0]], &sessions[pair[1]]);
        if a.client == b.client {
            let end = a.end_s().min(horizon_s);
            assert!(
                end < b.start_s || (end == b.start_s && pair[0] < pair[1]),
                "client {} has overlapping sessions",
                a.client
            );
        }
    }
}

impl<L: Locality> Process<World<L>, AcornEvent> for SessionProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        check_trace(&self.sessions, self.horizon_s, ctx.world.wlan.clients.len());
        ctx.telemetry.register_histogram(
            "association.delay_s",
            // Delivery delays for 1500-byte payloads run sub-millisecond
            // at high MCS to a few ms near the floor; overflow catches
            // retry-dominated stragglers.
            Histogram::linear(0.0, 0.01, 50).expect("static histogram bounds"),
        );
        for s in &self.sessions {
            if s.start_s < self.horizon_s {
                ctx.schedule_at(s.start_s, AcornEvent::Arrive(s.client));
                ctx.schedule_at(s.end_s().min(self.horizon_s), AcornEvent::Depart(s.client));
            }
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        match *event {
            AcornEvent::Arrive(c) => {
                ctx.world.arrive(c, self.adapt_widths, ctx.telemetry);
            }
            AcornEvent::Depart(c) => {
                ctx.world.depart(c, self.adapt_widths, ctx.telemetry);
            }
            _ => {}
        }
        let active = ctx.world.active_clients() as f64;
        ctx.telemetry.set_gauge("clients.active", active);
    }
}

/// Where a [`ReallocationTimer`] epoch gets its restart seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeedPolicy {
    /// Use `next`, then increment by one — the historical churn-loop
    /// behaviour (`seed + 1`, `seed + 2`, …), kept for bit-compatibility
    /// with pre-kernel outputs.
    Sequential {
        /// The next epoch's seed.
        next: u64,
    },
    /// Derive each epoch's seed as `mix_seed(base, event_seq)` — the
    /// preferred policy for new scenarios: the event's globally unique
    /// sequence number keys an independent splitmix64 stream, so adding
    /// or removing unrelated processes never shifts which stream an
    /// epoch consumes in a structurally unchanged schedule.
    FromEventSeq {
        /// Base seed mixed with the firing event's sequence number.
        base: u64,
    },
}

impl SeedPolicy {
    /// The policy a scenario runs under. With a fault layer attached,
    /// epoch seeds count epochs rather than events: a faulty run and its
    /// golden twin schedule different event interleavings (delayed
    /// deliveries consume sequence numbers), and the resilience
    /// comparison is only meaningful if both draw identical per-epoch
    /// restart streams.
    pub fn for_scenario(seed: u64, faults: bool) -> SeedPolicy {
        if faults {
            SeedPolicy::Sequential {
                next: seed.wrapping_add(1),
            }
        } else {
            SeedPolicy::FromEventSeq { base: seed }
        }
    }

    pub(crate) fn epoch_seed(&mut self, event_seq: u64) -> u64 {
        match self {
            SeedPolicy::Sequential { next } => {
                let s = *next;
                *next = next.wrapping_add(1);
                s
            }
            SeedPolicy::FromEventSeq { base } => mix_seed(*base, event_seq),
        }
    }
}

/// Periodic Algorithm 2 re-allocation (the paper's every-30-minutes
/// controller loop). Fires at `period_s`, `2·period_s`, … strictly below
/// `horizon_s`, self-scheduling each next tick. Each firing records a
/// [`ReallocRecord`] into the world and telemetry series
/// `network_bps.before`/`network_bps.after`, a `switches` histogram, and
/// a `reallocations` counter. The epoch's `alloc.*`/`model.*` metrics
/// ride an ephemeral sink shared across the restart fan-out (counter adds
/// commute, so the totals are thread-invariant) and drain into the
/// run-wide recorder sequentially.
pub struct ReallocationTimer {
    /// Re-allocation period `T` (s).
    pub period_s: f64,
    /// Horizon (s); ticks at or past it never fire.
    pub horizon_s: f64,
    /// Random restarts per epoch (per shard under [`Locality::PER_COMPONENT`]),
    /// fanned over the thread pool.
    pub restarts: usize,
    /// Run the width adaptation at every AP after each re-allocation.
    pub adapt_widths: bool,
    /// Per-epoch seed derivation.
    pub seed_policy: SeedPolicy,
    /// Degrade gracefully when APs are down: keep the last-known-good
    /// plan, skip re-optimization, and force cells bordering a dead AP to
    /// 20 MHz. Off, the timer re-optimizes blindly every epoch (the
    /// pre-fault-layer behaviour — and bit-identical to it while every
    /// AP is up).
    pub safe_mode: bool,
}

impl<L: Locality> Process<World<L>, AcornEvent> for ReallocationTimer {
    fn start(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        ctx.telemetry.register_histogram(
            "switches",
            Histogram::linear(0.0, 32.0, 32).expect("static histogram bounds"),
        );
        if self.period_s < self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::Reallocate);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::Reallocate);
        let t = ctx.now();
        let seed = self.seed_policy.epoch_seed(ctx.event_seq());
        let w = &mut *ctx.world;
        let epoch = L::open_epoch(w);
        let before = L::objective_bps(w, &epoch);
        let active = w.active_clients();
        let degraded = self.safe_mode && !w.all_up();
        let (after, switches) = if degraded {
            w.enter_safe_mode();
            ctx.telemetry.inc(names::CONTROLLER_SAFE_MODE_EPOCHS);
            (L::objective_bps(w, &epoch), 0)
        } else {
            let sink = RecordingSink::new();
            let model = L::epoch_model(w, epoch);
            let r = w.ctl.reallocate(
                &model,
                &mut w.state,
                self.restarts,
                seed,
                L::PER_COMPONENT,
                &sink,
            );
            if self.adapt_widths {
                L::adapt_all(w);
            }
            L::close_epoch(&model, r.total_bps, &sink);
            sink.drain_into(ctx.telemetry);
            if self.safe_mode {
                w.last_good = Some((w.state.assignments.clone(), w.state.operating_width.clone()));
            }
            (r.total_bps, r.switches)
        };
        let record = ReallocRecord {
            t_s: t,
            active_clients: active,
            before_bps: before,
            after_bps: after,
            switches,
            degraded,
            down_aps: w.down_count(),
        };
        w.realloc_log.push(record);
        ctx.telemetry.inc("reallocations");
        ctx.telemetry.record("network_bps.before", t, before);
        ctx.telemetry.record("network_bps.after", t, after);
        ctx.telemetry.observe("switches", switches as f64);
        let next = t + self.period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::Reallocate);
        }
    }
}

/// Slow environmental shadowing drift: every `period_s`, advances the
/// path-loss model's
/// [`drift_phase`](acorn_topology::pathloss::LogDistance::drift_phase) by
/// `phase_step_rad`, smoothly decorrelating every link's shadowing draw
/// from its initial value while keeping the marginal distribution — and
/// full determinism — intact, then refreshes the world's cached links
/// ([`World::refresh_links`]). Models the hours-scale environment changes
/// (doors, furniture, crowds) that motivate periodic re-allocation in the
/// first place.
/// Telemetry: `drift.phase_rad` gauge, `drift.steps` counter.
pub struct DriftProcess {
    /// Drift step period (s).
    pub period_s: f64,
    /// Horizon (s); steps past it never fire.
    pub horizon_s: f64,
    /// Phase advance per step (radians).
    pub phase_step_rad: f64,
}

impl<L: Locality> Process<World<L>, AcornEvent> for DriftProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        if self.period_s <= self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::DriftStep);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::DriftStep);
        let t = ctx.now();
        ctx.world.wlan.pathloss.drift_phase += self.phase_step_rad;
        ctx.world.refresh_links();
        let phase = ctx.world.wlan.pathloss.drift_phase;
        ctx.telemetry.set_gauge("drift.phase_rad", phase);
        ctx.telemetry.inc("drift.steps");
        let next = t + self.period_s;
        if next <= self.horizon_s {
            ctx.schedule_at(next, AcornEvent::DriftStep);
        }
    }
}

/// Walks one client along a [`Trajectory`], re-sampling its position
/// every `sample_period_s` (first sample at `t = 0`) through
/// [`World::move_client`] and optionally letting the locality re-run the
/// §5.2 width fallback at the walker's AP. Telemetry: `mobility.snr20_db`
/// series (the mobile's best HT20 SNR over all APs) and a
/// `mobility.samples` counter.
pub struct MobilityProcess {
    /// The walking client.
    pub client: ClientId,
    /// Its walk.
    pub trajectory: Trajectory,
    /// Position-update period (s).
    pub sample_period_s: f64,
    /// Horizon (s); samples past it never fire.
    pub horizon_s: f64,
    /// Run the width adaptation after each position update.
    pub adapt_widths: bool,
}

impl<L: Locality> Process<World<L>, AcornEvent> for MobilityProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        assert!(
            self.client.0 < ctx.world.wlan.clients.len(),
            "mobile client {} has no position in the deployment",
            self.client.0
        );
        ctx.schedule_at(0.0, AcornEvent::MobilitySample);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::MobilitySample);
        let t = ctx.now();
        let w = &mut *ctx.world;
        w.move_client(self.client.0, self.trajectory.position_at(t));
        if self.adapt_widths {
            L::adapt_after_change(w, w.state.assoc[self.client.0].map(|ap| ap.0));
        }
        let snr = (0..w.wlan.aps.len())
            .map(|i| w.wlan.snr_db(ApId(i), self.client, ChannelWidth::Ht20))
            .fold(f64::NEG_INFINITY, f64::max);
        ctx.telemetry.record("mobility.snr20_db", t, snr);
        ctx.telemetry.inc("mobility.samples");
        let next = t + self.sample_period_s;
        if next <= self.horizon_s {
            ctx.schedule_at(next, AcornEvent::MobilitySample);
        }
    }
}

/// What a scenario run over a [`World<L>`] produced. The locality tag
/// keeps each world's report its own type
/// ([`CompositeReport`](crate::CompositeReport),
/// [`CityReport`](crate::CityReport)).
pub struct ScenarioReport<L> {
    /// Events dispatched and final virtual time.
    pub stats: RunStats,
    /// The frozen telemetry.
    pub telemetry: TelemetrySnapshot,
    /// The executed-event log (present iff the run recorded one).
    pub log: Option<EventLog>,
    /// One record per re-allocation epoch.
    pub realloc: Vec<ReallocRecord>,
    /// The final controller state.
    pub final_state: NetworkState,
    /// Fault-layer aggregates (present iff a fault layer ran). The golden
    /// comparison fields are zero unless
    /// [`run_with_golden_twin`](crate::run_with_golden_twin) produced the
    /// report.
    pub resilience: Option<ResilienceReport>,
    locality: PhantomData<fn() -> L>,
}

impl<L: Locality> ScenarioReport<L> {
    /// Runs `sim` to `horizon_s` and collects what it produced; `faults`
    /// says whether a fault layer was registered.
    pub(crate) fn run(
        mut sim: Simulation<World<L>, AcornEvent>,
        horizon_s: f64,
        faults: bool,
    ) -> Self {
        let stats = sim.run(horizon_s);
        let resilience = faults.then(|| ResilienceReport::from_telemetry(&sim.telemetry));
        ScenarioReport {
            stats,
            telemetry: sim.telemetry.snapshot(),
            log: sim.event_log().cloned(),
            realloc: std::mem::take(&mut sim.world.realloc_log),
            final_state: sim.world.state.clone(),
            resilience,
            locality: PhantomData,
        }
    }
}

/// Drift parameters for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Drift step period (s).
    pub period_s: f64,
    /// Phase advance per step (radians).
    pub phase_step_rad: f64,
}

impl DriftSpec {
    /// The drift process this spec describes, up to `horizon_s`.
    pub fn process(&self, horizon_s: f64) -> DriftProcess {
        DriftProcess {
            period_s: self.period_s,
            horizon_s,
            phase_step_rad: self.phase_step_rad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::{AcornWorld, CityWorld};
    use acorn_core::AcornConfig;
    use acorn_topology::Point;

    fn two_aps() -> Wlan {
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)],
            vec![Point::new(10.0, 5.0), Point::new(50.0, 5.0)],
            5,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn session(client: usize, start_s: f64, end_s: f64) -> Session {
        Session {
            client,
            start_s,
            duration_s: end_s - start_s,
        }
    }

    /// Runs `sessions` through the session process to t = 1000 s.
    fn run<L: Locality>(world: World<L>, sessions: Vec<Session>) -> World<L> {
        let mut sim: Simulation<World<L>, AcornEvent> = Simulation::new(world);
        sim.add_process(Box::new(SessionProcess {
            sessions,
            horizon_s: 1000.0,
            adapt_widths: true,
        }));
        sim.run(1000.0);
        sim.world
    }

    fn exact() -> AcornWorld {
        AcornWorld::new(two_aps(), AcornController::new(AcornConfig::default()), 1)
    }

    fn city() -> CityWorld {
        let ctl = AcornController::new(AcornConfig::default());
        CityWorld::new(two_aps(), ctl, 120.0, 1)
    }

    // Client 0 would arrive again at 100 s while its first session still
    // holds it: the incremental world counted it twice (a phantom client
    // in every later model) and the exact world ended the longer session
    // at 200 s.
    fn overlapping() -> Vec<Session> {
        vec![session(0, 10.0, 500.0), session(0, 100.0, 200.0)]
    }

    #[test]
    #[should_panic(expected = "client 0 has overlapping sessions")]
    fn exact_world_rejects_overlapping_sessions_of_one_client() {
        run(exact(), overlapping());
    }

    #[test]
    #[should_panic(expected = "client 0 has overlapping sessions")]
    fn city_world_rejects_overlapping_sessions_of_one_client() {
        run(city(), overlapping());
    }

    #[test]
    #[should_panic(expected = "client 1 has overlapping sessions")]
    fn a_later_listed_session_ending_at_an_arrival_overlaps_it() {
        // Both fire at 100 s, and the arrival was scheduled first.
        run(
            exact(),
            vec![session(1, 100.0, 300.0), session(1, 10.0, 100.0)],
        );
    }

    /// One ulp off one client's cached HT20 SNR, its delays and its
    /// cell's ATDs re-derived from it: only the link check can see it.
    fn stale_link_is_caught<L: Locality>(mut w: World<L>) {
        let sink = RecordingSink::new();
        for c in 0..w.wlan.clients.len() {
            w.associate(c, &sink);
        }
        assert!(w.advert_cache_matches());
        let ap = w.state.assoc[0].expect("client 0 found an AP").0;
        let snr = f64::from_bits(w.client_snr20[0].to_bits() + 1);
        w.client_snr20[0] = snr;
        w.client_delays[0] = w.ctl.delays_from_snr(snr);
        w.resum(ap);
        assert!(!w.advert_cache_matches(), "a stale link SNR went unseen");
    }

    #[test]
    fn a_stale_link_snr_is_caught_in_both_worlds() {
        stale_link_is_caught(exact());
        stale_link_is_caught(city());
    }

    #[test]
    fn back_to_back_sessions_of_one_client_run_in_both_worlds() {
        // The first session's departure and the second's arrival share an
        // instant; trace order fires the departure first.
        let sessions = vec![
            session(0, 10.0, 100.0),
            session(1, 20.0, 400.0),
            session(0, 100.0, 300.0),
            // Starts past the horizon, so it never fires.
            session(0, 250.0 + 1000.0, 1500.0),
        ];
        let e = run(exact(), sessions.clone());
        let c = run(city(), sessions);
        assert_eq!(e.active_clients(), 0);
        assert_eq!(c.active_clients(), 0);
        assert!(c.cell_clients(0).is_empty() && c.cell_clients(1).is_empty());
        assert!(c.graph_snapshot() == c.wlan.ap_only_interference_graph());
    }
}
