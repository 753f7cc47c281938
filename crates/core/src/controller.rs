//! The ACORN controller: the glue that runs Algorithms 1 and 2 over a live
//! deployment (Fig. 7's two coupled modules), plus the opportunistic
//! width adaptation used with mobile clients (§5.2).
//!
//! Lifecycle, as in the paper's Click implementation:
//! * APs periodically emit modified beacons ([`AcornController::beacons`]).
//! * An arriving client probes every in-range AP, builds its candidate
//!   set, and associates per Algorithm 1
//!   ([`AcornController::associate`]).
//! * Every `T` = 30 minutes (from the Fig. 9 trace analysis) the
//!   controller re-runs Algorithm 2 ([`AcornController::reallocate`]).
//! * Between re-allocations, an AP holding a bonded channel may
//!   *opportunistically* fall back to one of its two 20 MHz members when
//!   its clients' link qualities degrade, "\[s\]ince the other APs choose
//!   their frequencies based on the channels assigned to this particular
//!   AP, using either of the two 20 MHz channels will not change the
//!   interference on the neighboring APs"
//!   ([`AcornController::adapt_widths`]).
//!
//! These functions re-derive the model from the deployment on every
//! call: they are the offline API. The event runtime's worlds keep cells,
//! conflict graph and per-cell adverts current instead, and its exact
//! world is tested against these functions bit for bit.

use crate::allocation::{allocate, random_initial, AllocSpec, AllocationConfig, AllocationResult};
use crate::association::{choose_ap, Candidate};
use crate::beacon::Beacon;
use crate::model::{ClientSnr, NetworkModel, ThroughputModel};
use crate::par;
use acorn_mac::contention::access_share;
use acorn_mac::timing::delivery_delay_s;
use acorn_obs::{names, Sink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::{ChannelWidth, GoodputTable, McsIndex};
use acorn_topology::{ApId, ChannelAssignment, ChannelPlan, ClientId, Wlan};
use std::sync::Arc;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcornConfig {
    /// Available channel plan.
    pub plan: ChannelPlan,
    /// The §4.2 link-quality estimator.
    pub estimator: LinkQualityEstimator,
    /// Payload size for all airtime accounting (bytes).
    pub payload_bytes: u32,
    /// Algorithm 2 knobs.
    pub allocation: AllocationConfig,
    /// Minimum HT20 SNR (dB) for an AP to enter a client's candidate set
    /// `A_u` (below this, association/probing is not viable).
    pub association_snr_floor_db: f64,
    /// Relative hysteresis margin for the opportunistic width adaptation
    /// ([`AcornController::adapt_widths`]): a bonded AP switches its
    /// operating width only when the other width's predicted cell
    /// throughput exceeds the *current* width's by more than this
    /// fraction. `0.0` reproduces the paper's memoryless `t40 ≥ t20`
    /// comparison; the default 5 % keeps a client oscillating around the
    /// CB crossover SNR from flapping the cell width on consecutive
    /// events.
    pub width_hysteresis: f64,
}

impl Default for AcornConfig {
    fn default() -> Self {
        AcornConfig {
            plan: ChannelPlan::full_5ghz(),
            estimator: LinkQualityEstimator::default(),
            payload_bytes: 1500,
            allocation: AllocationConfig::default(),
            association_snr_floor_db: -3.0,
            width_hysteresis: 0.05,
        }
    }
}

/// Mutable network state the controller maintains.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// Channel assignment per AP (Algorithm 2's output `F`).
    pub assignments: Vec<ChannelAssignment>,
    /// Association per client (`None` = not associated).
    pub assoc: Vec<Option<ApId>>,
    /// The width each AP currently *operates* at — equal to its
    /// assignment's width, except when a bonded AP has opportunistically
    /// fallen back to 20 MHz.
    pub operating_width: Vec<ChannelWidth>,
}

impl NetworkState {
    /// The assignment an AP is effectively using right now (assignment
    /// narrowed to its primary 20 MHz channel during fallback).
    pub fn effective_assignment(&self, ap: ApId) -> ChannelAssignment {
        let a = self.assignments[ap.0];
        match self.operating_width[ap.0] {
            ChannelWidth::Ht40 => a,
            ChannelWidth::Ht20 => a.fallback_20(),
        }
    }

    /// All effective assignments.
    pub fn effective_assignments(&self) -> Vec<ChannelAssignment> {
        (0..self.assignments.len())
            .map(|i| self.effective_assignment(ApId(i)))
            .collect()
    }

    /// Clients associated with `ap`.
    pub fn cell_clients(&self, ap: ApId) -> Vec<ClientId> {
        self.assoc
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Some(ap))
            .map(|(c, _)| ClientId(c))
            .collect()
    }
}

/// The ACORN controller.
#[derive(Debug, Clone)]
pub struct AcornController {
    /// Configuration.
    pub config: AcornConfig,
    /// Optional memoized goodput table shared with every model this
    /// controller builds (and with any other controller clone). `None`
    /// keeps the exact per-call estimator pipeline.
    table: Option<Arc<GoodputTable>>,
}

impl AcornController {
    /// Creates a controller using the exact estimator pipeline.
    pub fn new(config: AcornConfig) -> AcornController {
        AcornController {
            config,
            table: None,
        }
    }

    /// Creates a controller that answers SNR → goodput queries from a
    /// shared memoized [`GoodputTable`]. The config's estimator is
    /// replaced by the table's own, so the table and every fallback path
    /// agree on calibration, GI and fading parameters.
    pub fn with_table(mut config: AcornConfig, table: Arc<GoodputTable>) -> AcornController {
        config.estimator = *table.estimator();
        AcornController {
            config,
            table: Some(table),
        }
    }

    /// The attached goodput table, if any.
    pub fn table(&self) -> Option<&Arc<GoodputTable>> {
        self.table.as_ref()
    }

    /// Fresh state: random channels (the Algorithm 2 starting point), no
    /// associations, full-width operation.
    pub fn new_state(&self, wlan: &Wlan, seed: u64) -> NetworkState {
        let assignments = random_initial(&self.config.plan, wlan.aps.len(), seed);
        let operating_width = assignments.iter().map(|a| a.width()).collect();
        NetworkState {
            assignments,
            operating_width,
            assoc: vec![None; wlan.clients.len()],
        }
    }

    /// Builds the throughput model for the current association, using
    /// *effective* assignments' interference semantics.
    pub fn build_model(&self, wlan: &Wlan, state: &NetworkState) -> NetworkModel {
        let graph = wlan.interference_graph(&state.assoc);
        let cells: Vec<Vec<ClientSnr>> = (0..wlan.aps.len())
            .map(|i| {
                state
                    .cell_clients(ApId(i))
                    .into_iter()
                    .map(|c| ClientSnr {
                        client: c.0,
                        snr20_db: wlan.snr_db(ApId(i), c, ChannelWidth::Ht20),
                    })
                    .collect()
            })
            .collect();
        match &self.table {
            Some(t) => {
                NetworkModel::with_table(graph, cells, Arc::clone(t), self.config.payload_bytes)
            }
            None => NetworkModel::with_config(
                graph,
                cells,
                self.config.estimator,
                self.config.payload_bytes,
            ),
        }
    }

    /// Current beacons of all APs.
    pub fn beacons(&self, wlan: &Wlan, state: &NetworkState) -> Vec<Beacon> {
        let model = self.build_model(wlan, state);
        let eff = state.effective_assignments();
        (0..wlan.aps.len())
            .map(|i| {
                let ap = ApId(i);
                let airtime = model.cell_airtime(ap, state.operating_width[i]);
                let m = access_share(&model.graph, &eff, ap);
                Beacon::from_airtime(ap, eff[i], &airtime, m)
            })
            .collect()
    }

    /// The delivery delay the §4.2 pipeline predicts for a link with the
    /// given 20 MHz-referenced SNR, at a width — the per-client `d_u`
    /// ACORN beacons advertise. The exact pipeline searches only the asked
    /// width; the table path looks up both, as its hit counters record.
    pub fn delay_from_snr(&self, snr20_db: f64, width: ChannelWidth) -> f64 {
        let e = &self.config.estimator;
        let point = match &self.table {
            Some(t) => t.estimate(snr20_db, ChannelWidth::Ht20).rate_point(width),
            None => e.best_rate_point(e.calibrate_snr(snr20_db, ChannelWidth::Ht20, width), width),
        };
        self.delay_at(point.mcs, point.per, width)
    }

    /// [`delay_from_snr`](AcornController::delay_from_snr) at both widths,
    /// indexed by `width as usize`, bit for bit: the table path reads both
    /// from one `estimate` (the two lookups one width already costs), the
    /// exact path searches each width once.
    pub fn delays_from_snr(&self, snr20_db: f64) -> [f64; 2] {
        let widths = [ChannelWidth::Ht20, ChannelWidth::Ht40];
        match &self.table {
            Some(t) => {
                let est = t.estimate(snr20_db, ChannelWidth::Ht20);
                widths.map(|w| {
                    let point = est.rate_point(w);
                    self.delay_at(point.mcs, point.per, w)
                })
            }
            None => widths.map(|w| self.delay_from_snr(snr20_db, w)),
        }
    }

    fn delay_at(&self, mcs: McsIndex, per: f64, width: ChannelWidth) -> f64 {
        let rate_bps = mcs.mcs().rate_bps(width, self.config.estimator.gi);
        delivery_delay_s(self.config.payload_bytes, rate_bps, per)
    }

    /// The fastest delay any link can have at `width`: the top MCS at
    /// PER 0, through the formula every delay query uses. No
    /// [`delay_from_snr`](AcornController::delay_from_snr) is below it
    /// (a NaN one is not below anything): every MCS is at most as fast
    /// as the top one, `delivery_delay_s` clamps the PER into [0, 1],
    /// and each float operation on the way is monotone.
    pub fn delay_floor_s(&self, width: ChannelWidth) -> f64 {
        self.delay_at(McsIndex::MAX, 0.0, width)
    }

    /// The advertised delay for a *tracked* link at the controller
    /// boundary: the staleness-gated EWMA estimate feeds the §4.2
    /// pipeline, and a stale link degrades to `∞` (`u32::MAX` µs on the
    /// wire) — a link the controller has not heard from recently must
    /// never be advertised at its last confident value.
    pub fn tracked_delay_s(
        &self,
        tracker: &crate::tracker::ClientTracker,
        now_s: f64,
        width: ChannelWidth,
    ) -> f64 {
        match tracker.fresh_snr_db(now_s) {
            Some(snr20) => self.delay_from_snr(snr20, width),
            None => f64::INFINITY,
        }
    }

    /// Builds client `u`'s candidate set (its view after probing every
    /// in-range AP): beacon contents with `u` provisionally counted in.
    pub fn candidates_for(
        &self,
        wlan: &Wlan,
        state: &NetworkState,
        client: ClientId,
    ) -> Vec<Candidate> {
        let beacons = self.beacons(wlan, state);
        let mut out = Vec::new();
        for (i, b) in beacons.iter().enumerate() {
            let ap = ApId(i);
            let snr20 = wlan.snr_db(ap, client, ChannelWidth::Ht20);
            if snr20 < self.config.association_snr_floor_db {
                continue;
            }
            let width = state.operating_width[i];
            let d_u = self.delay_from_snr(snr20, width);
            out.push(Candidate {
                ap,
                k_including_u: b.n_clients + 1,
                access_share: b.access_share,
                atd_including_u_s: b.atd_s + d_u,
                delay_u_s: d_u,
            });
        }
        out
    }

    /// Algorithm 1: associates `client`, mutating the state, and reports
    /// the candidate ranking (`assoc.*`) into `sink`. Returns the chosen
    /// AP, or `None` if no AP is in range.
    pub fn associate<S: Sink>(
        &self,
        wlan: &Wlan,
        state: &mut NetworkState,
        client: ClientId,
        sink: &S,
    ) -> Option<ApId> {
        let candidates = self.candidates_for(wlan, state, client);
        let choice = choose_ap(&candidates, sink)?;
        let ap = candidates[choice].ap;
        state.assoc[client.0] = Some(ap);
        Some(ap)
    }

    /// Removes a departing client.
    pub fn deassociate(&self, state: &mut NetworkState, client: ClientId) {
        state.assoc[client.0] = None;
    }

    /// Algorithm 2: re-allocates channels from the current assignment,
    /// hedged with `restarts` random starts drawn from `seed` (see
    /// [`allocate`]). `model` must describe `state`'s association — it is
    /// [`AcornController::build_model`] of it, or an equivalently built
    /// model.
    ///
    /// With `per_component` the conflict graph is split into its
    /// connected components ([`AcornController::zones`] order) and each
    /// is solved on its own [`NetworkModel::restrict`]ed submodel as
    /// component `s`, which keeps the restart seeds of different
    /// components apart; `alloc.shards` counts the components. The split
    /// is exact — an AP's access share depends only on its graph
    /// neighbours, so `Y = Σ_components Y_component` — and each component
    /// keeping its own better of start and hedge can only improve on one
    /// network-wide hedge winner. Without it the whole network is one
    /// greedy (the paper's Algorithm 2). On a connected graph the two are
    /// the same call.
    ///
    /// The winner is written back into `state`, every AP returns to its
    /// assignment's full width, and the model's `model.*` and
    /// `phy.table.*` counters are flushed into `sink` after the fan-out
    /// has joined. Submodels' own evaluation counters are not flushed.
    pub fn reallocate<S: Sink + Sync>(
        &self,
        model: &NetworkModel,
        state: &mut NetworkState,
        restarts: usize,
        seed: u64,
        per_component: bool,
        sink: &S,
    ) -> AllocationResult {
        let (plan, config) = (&self.config.plan, &self.config.allocation);
        let mut components = Vec::new();
        if per_component {
            components = model.graph.connected_components();
            if sink.enabled() {
                sink.add(names::ALLOC_SHARDS, components.len().max(1) as u64);
            }
        }
        // The whole-network greedy, or a connected graph: one call on the
        // full model.
        let result = if components.len() <= 1 {
            let spec = AllocSpec {
                initial: Some(&state.assignments),
                restarts,
                seed,
                component: 0,
            };
            allocate(model, plan, config, &spec, sink)
        } else {
            // Components are independent, so they fan out; the winners are
            // scattered back in component order.
            let winners = par::par_map_n(components.len(), |s| {
                let nodes = &components[s];
                let initial: Vec<ChannelAssignment> =
                    nodes.iter().map(|&i| state.assignments[i]).collect();
                let spec = AllocSpec {
                    initial: Some(&initial),
                    restarts,
                    seed,
                    component: s,
                };
                allocate(&model.restrict(nodes), plan, config, &spec, sink)
            });
            let mut merged = state.assignments.clone();
            let (mut iterations, mut switches, mut history_bps) = (0, 0, Vec::new());
            for (nodes, winner) in components.iter().zip(winners) {
                for (local, &global) in nodes.iter().enumerate() {
                    merged[global] = winner.assignments[local];
                }
                iterations += winner.iterations;
                switches += winner.switches;
                history_bps.extend(winner.history_bps);
            }
            // One full evaluation re-anchors the headline number, exactly
            // as a single greedy run does.
            AllocationResult {
                total_bps: model.total_bps(&merged),
                assignments: merged,
                iterations,
                switches,
                history_bps,
            }
        };
        state.assignments.clone_from(&result.assignments);
        state.operating_width = state.assignments.iter().map(|a| a.width()).collect();
        model.flush_stats_into(sink);
        result
    }

    /// The canonical zone decomposition: the connected components of the
    /// interference graph under the current association, each sorted
    /// ascending and ordered by smallest vertex — exactly the component
    /// order [`AcornController::reallocate`] splits over, so a zone's
    /// position in this list is the `component` its zone-local
    /// [`allocate`] must run as to replay the centralized decision.
    pub fn zones(&self, wlan: &Wlan, state: &NetworkState) -> Vec<Vec<usize>> {
        wlan.interference_graph(&state.assoc).connected_components()
    }

    /// Opportunistic width adaptation (§5.2): each bonded AP compares its
    /// predicted cell throughput at 40 MHz vs its 20 MHz fallback — at its
    /// *current* client SNRs — and operates at the better width. Single-
    /// channel APs are untouched.
    ///
    /// The comparison is *hysteretic*: the AP leaves its current
    /// operating width only when the alternative's predicted cell
    /// throughput beats the current one's by more than
    /// [`AcornConfig::width_hysteresis`] (a relative margin). A client
    /// whose SNR oscillates around the CB crossover therefore does **not**
    /// flap the cell width on consecutive events — both widths predict
    /// near-equal throughput inside the band, so the AP holds its current
    /// width until the link clearly favours the other one. With a margin
    /// of `0.0` this reduces to the paper's memoryless rule (`t40 ≥ t20`
    /// picks 40 MHz, ties included), which *does* flap under such
    /// oscillation. Re-allocation ([`AcornController::reallocate`]) resets every AP to its
    /// assignment's full width, re-arming the comparison each epoch.
    pub fn adapt_widths(&self, wlan: &Wlan, state: &mut NetworkState) {
        let model = self.build_model(wlan, state);
        for i in 0..state.assignments.len() {
            if state.assignments[i].width() != ChannelWidth::Ht40 {
                continue;
            }
            let ap = ApId(i);
            // Compare at equal access share: the fallback stays within the
            // bond, so neighbours' contention with this AP is unchanged.
            // The model already holds both contention-free throughputs.
            let t40 = model.cell_base_bps(ap, ChannelWidth::Ht40);
            let t20 = model.cell_base_bps(ap, ChannelWidth::Ht20);
            state.operating_width[i] = self.choose_width(state.operating_width[i], t20, t40);
        }
    }

    /// The §5.2 width rule for one bonded AP operating at `current`, given
    /// its cell throughputs `t20`/`t40` at equal access share (or any
    /// quantity proportional to them). With zero
    /// [`width_hysteresis`](AcornConfig::width_hysteresis) it is the
    /// paper's memoryless `t40 ≥ t20` (ties keep the bond); otherwise the
    /// AP switches only when the other width beats the current one by
    /// more than the margin.
    pub fn choose_width(&self, current: ChannelWidth, t20: f64, t40: f64) -> ChannelWidth {
        let margin = self.config.width_hysteresis.max(0.0);
        if margin == 0.0 {
            return if t40 >= t20 {
                ChannelWidth::Ht40
            } else {
                ChannelWidth::Ht20
            };
        }
        let (t_cur, t_alt, alt) = match current {
            ChannelWidth::Ht40 => (t40, t20, ChannelWidth::Ht20),
            ChannelWidth::Ht20 => (t20, t40, ChannelWidth::Ht40),
        };
        if t_alt > t_cur * (1.0 + margin) {
            alt
        } else {
            current
        }
    }

    /// Predicted aggregate network throughput under the current state
    /// (effective widths and contention), counting only the APs marked up
    /// in `up`. Missing entries count as up, so an empty mask sums every
    /// cell. A crashed AP's cell simply contributes zero — its orphaned
    /// clients are the fault layer's problem to re-associate.
    pub fn total_throughput_bps(&self, wlan: &Wlan, state: &NetworkState, up: &[bool]) -> f64 {
        let model = self.build_model(wlan, state);
        let eff = state.effective_assignments();
        (0..wlan.aps.len())
            .filter(|&i| up.get(i).copied().unwrap_or(true))
            .map(|i| {
                let m = access_share(&model.graph, &eff, ApId(i));
                model
                    .cell_airtime(ApId(i), state.operating_width[i])
                    .cell_throughput_bps(m)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_obs::{NullSink, RecordingSink};
    use acorn_topology::Point;

    /// Two APs 60 m apart; strong clients near the APs, one genuinely
    /// poor client far out (HT20 SNR ≈ 0 dB — the regime where the paper
    /// observes CB collapsing). Tx power is lowered to 5 dBm so the cell
    /// edge falls inside the test geometry.
    fn wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)],
            vec![
                Point::new(3.0, 0.0),    // strong, near AP 0
                Point::new(5.0, 2.0),    // strong, near AP 0
                Point::new(57.0, 0.0),   // strong, near AP 1
                Point::new(-55.0, 65.0), // poor: ~85 m from AP 0
            ],
            11,
        );
        // No shadowing: the geometry should speak for itself in tests.
        w.pathloss.shadowing_sigma_db = 0.0;
        w.radio.tx_power_dbm = 5.0;
        w
    }

    fn controller() -> AcornController {
        AcornController::new(AcornConfig::default())
    }

    /// One reallocation epoch on the model of the current state.
    fn realloc(
        c: &AcornController,
        w: &Wlan,
        s: &mut NetworkState,
        restarts: usize,
        seed: u64,
        per_component: bool,
    ) -> AllocationResult {
        let model = c.build_model(w, s);
        c.reallocate(&model, s, restarts, seed, per_component, &NullSink)
    }

    #[test]
    fn fresh_state_shape() {
        let w = wlan();
        let c = controller();
        let s = c.new_state(&w, 1);
        assert_eq!(s.assignments.len(), 2);
        assert_eq!(s.assoc.len(), 4);
        assert!(s.assoc.iter().all(|a| a.is_none()));
        for (a, w_) in s.assignments.iter().zip(&s.operating_width) {
            assert_eq!(a.width(), *w_);
        }
    }

    #[test]
    fn clients_associate_with_nearby_aps() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 2);
        assert_eq!(
            c.associate(&w, &mut s, ClientId(0), &NullSink),
            Some(ApId(0))
        );
        assert_eq!(
            c.associate(&w, &mut s, ClientId(2), &NullSink),
            Some(ApId(1))
        );
    }

    #[test]
    fn beacons_track_association() {
        // Note: Eq. 4 maximizes *network* throughput, so two equal-quality
        // clients may legitimately spread across APs rather than share one
        // — we assert the accounting, not a specific split.
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 3);
        c.associate(&w, &mut s, ClientId(0), &NullSink);
        c.associate(&w, &mut s, ClientId(1), &NullSink);
        let b = c.beacons(&w, &s);
        assert_eq!(b[0].n_clients + b[1].n_clients, 2);
        assert!(b.iter().all(|x| x.is_consistent()));
        // Delay lists follow the association.
        for (i, beacon) in b.iter().enumerate() {
            assert_eq!(beacon.n_clients, s.cell_clients(ApId(i)).len());
        }
    }

    #[test]
    fn out_of_range_client_gets_none() {
        let mut w = wlan();
        w.clients.push(acorn_topology::Client {
            pos: Point::new(5000.0, 5000.0),
        });
        let c = controller();
        let mut s = c.new_state(&w, 4);
        assert_eq!(c.associate(&w, &mut s, ClientId(4), &NullSink), None);
        assert_eq!(s.assoc[4], None);
    }

    #[test]
    fn reallocation_never_hurts_and_separates_contenders() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 5);
        for cl in 0..4 {
            c.associate(&w, &mut s, ClientId(cl), &NullSink);
        }
        let before = c.total_throughput_bps(&w, &s, &[]);
        let r = realloc(&c, &w, &mut s, 0, 0, false);
        let after = c.total_throughput_bps(&w, &s, &[]);
        assert!(
            after + 1.0 >= before,
            "before {before:.3e} after {after:.3e}"
        );
        assert!(r.total_bps > 0.0);
        // Plenty of channels: the two (interfering) APs must not overlap.
        assert!(!s.assignments[0].conflicts(s.assignments[1]));
    }

    #[test]
    fn adapt_widths_falls_back_when_a_poor_client_joins() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 6);
        // Force AP 0 onto a bonded channel, strong clients only.
        s.assignments[0] = ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap();
        s.operating_width[0] = ChannelWidth::Ht40;
        s.assoc[0] = Some(ApId(0));
        s.assoc[1] = Some(ApId(0));
        c.adapt_widths(&w, &mut s);
        assert_eq!(
            s.operating_width[0],
            ChannelWidth::Ht40,
            "strong cell keeps CB"
        );
        // Now the weak mid-field client joins: the cell should fall back.
        s.assoc[3] = Some(ApId(0));
        c.adapt_widths(&w, &mut s);
        assert_eq!(
            s.operating_width[0],
            ChannelWidth::Ht20,
            "poor client forces fallback"
        );
        // Fallback stays inside the assigned bond.
        let eff = s.effective_assignment(ApId(0));
        assert!(s.assignments[0]
            .occupied()
            .any(|ch| eff.occupied().next() == Some(ch)));
    }

    #[test]
    fn fallback_changes_effective_assignment_only() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 7);
        s.assignments[0] = ChannelAssignment::bonded(acorn_topology::Channel20(2)).unwrap();
        s.operating_width[0] = ChannelWidth::Ht20;
        assert_eq!(s.effective_assignment(ApId(0)).width(), ChannelWidth::Ht20);
        // The underlying allocation is still the bond.
        assert_eq!(s.assignments[0].width(), ChannelWidth::Ht40);
    }

    /// Single bonded AP serving one client at distance `d`; returns the
    /// predicted (t40, t20) pair `adapt_widths` compares.
    fn width_throughputs_at(c: &AcornController, d: f64) -> (f64, f64) {
        let mut w = Wlan::new(vec![Point::new(0.0, 0.0)], vec![Point::new(d, 0.0)], 3);
        w.pathloss.shadowing_sigma_db = 0.0;
        let s = NetworkState {
            assignments: vec![ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap()],
            operating_width: vec![ChannelWidth::Ht40],
            assoc: vec![Some(ApId(0))],
        };
        let m = c.build_model(&w, &s);
        (
            m.cell_airtime(ApId(0), ChannelWidth::Ht40)
                .cell_throughput_bps(1.0),
            m.cell_airtime(ApId(0), ChannelWidth::Ht20)
                .cell_throughput_bps(1.0),
        )
    }

    /// Bisects for a `[d_near, d_far]` bracket around the CB crossover:
    /// 40 MHz wins at `d_near`, 20 MHz at `d_far`, and both predictions
    /// agree within `tol` at either end — the regime where a mobile
    /// client's SNR jitter flips the memoryless comparison's sign without
    /// any meaningful throughput difference.
    fn crossover_bracket(c: &AcornController, tol: f64) -> (f64, f64) {
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for d in 2..400 {
            let (t40, t20) = width_throughputs_at(c, d as f64);
            if t40 < t20 {
                hi = d as f64;
                lo = hi - 1.0;
                break;
            }
        }
        assert!(hi > 0.0, "no CB crossover found within 400 m");
        loop {
            let (a40, a20) = width_throughputs_at(c, lo);
            let (b40, b20) = width_throughputs_at(c, hi);
            assert!(a40 >= a20 && b40 < b20, "bracket lost the sign change");
            if (a40 - a20) / a20 < tol && (b20 - b40) / b40 < tol {
                return (lo, hi);
            }
            let mid = 0.5 * (lo + hi);
            let (m40, m20) = width_throughputs_at(c, mid);
            if m40 >= m20 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Oscillates a single client across the bracket for `events` width
    /// re-evaluations and counts operating-width changes.
    fn flaps_under(c: &AcornController, d_near: f64, d_far: f64, events: usize) -> usize {
        let mut w = Wlan::new(vec![Point::new(0.0, 0.0)], vec![Point::new(d_near, 0.0)], 3);
        w.pathloss.shadowing_sigma_db = 0.0;
        let mut s = NetworkState {
            assignments: vec![ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap()],
            operating_width: vec![ChannelWidth::Ht40],
            assoc: vec![Some(ApId(0))],
        };
        let mut switches = 0;
        for i in 0..events {
            w.clients[0].pos = Point::new(if i % 2 == 0 { d_near } else { d_far }, 0.0);
            let before = s.operating_width[0];
            c.adapt_widths(&w, &mut s);
            if s.operating_width[0] != before {
                switches += 1;
            }
        }
        switches
    }

    #[test]
    fn memoryless_rule_flaps_at_the_cb_crossover() {
        // Baseline for the hysteresis test below: with the margin off,
        // the paper's `t40 >= t20` rule re-decides from scratch on every
        // event, so a client bouncing across the crossover drags the
        // whole cell's width with it almost every time.
        let c = AcornController::new(AcornConfig {
            width_hysteresis: 0.0,
            ..AcornConfig::default()
        });
        let (d_near, d_far) = crossover_bracket(&c, 0.04);
        let switches = flaps_under(&c, d_near, d_far, 24);
        assert!(
            switches >= 12,
            "memoryless rule should flap nearly every event, got {switches}/24"
        );
    }

    #[test]
    fn hysteresis_locks_width_at_the_cb_crossover() {
        // The satellite scenario: the same oscillation under the default
        // 5 % margin. Inside the bracket both widths predict throughput
        // within 4 % of each other, so no event clears the margin and the
        // cell holds its width instead of flapping.
        let c = controller();
        assert!(c.config.width_hysteresis > 0.0, "default margin must be on");
        let (d_near, d_far) = crossover_bracket(&c, 0.04);
        let switches = flaps_under(&c, d_near, d_far, 24);
        assert!(
            switches <= 1,
            "hysteretic adaptation must not flap at the crossover, got {switches}/24"
        );
    }

    #[test]
    fn hysteresis_still_reacts_to_clear_degradation() {
        // Hysteresis must damp jitter, not decisions: a client far past
        // the crossover (where 20 MHz clearly wins) still triggers the
        // fallback on the first event.
        let c = controller();
        let (_, d_far) = crossover_bracket(&c, 0.04);
        // Walk outward until 20 MHz wins by well over the margin.
        let mut d = d_far;
        loop {
            let (t40, t20) = width_throughputs_at(&c, d);
            if t20 > 0.0 && t20 > 1.2 * t40 {
                break;
            }
            d += 1.0;
            assert!(d < 400.0, "no clearly-degraded regime found");
        }
        let switches = flaps_under(&c, d, d, 1);
        assert_eq!(switches, 1, "clear degradation must still fall back");
    }

    #[test]
    fn stale_tracked_links_advertise_infinite_delay() {
        use crate::tracker::ClientTracker;
        let c = controller();
        let mut t = ClientTracker::new(100.0);
        t.observe_snr(25.0, 100.0).unwrap();
        let fresh = c.tracked_delay_s(&t, 101.0, ChannelWidth::Ht20);
        assert!(fresh.is_finite() && fresh > 0.0);
        assert_eq!(
            fresh,
            c.delay_from_snr(t.snr_db().unwrap(), ChannelWidth::Ht20)
        );
        // Past the staleness horizon the boundary degrades to ∞ — which
        // the wire codec saturates to u32::MAX µs.
        let stale = c.tracked_delay_s(&t, 120.0, ChannelWidth::Ht20);
        assert_eq!(stale, f64::INFINITY);
    }

    #[test]
    fn up_mask_with_every_ap_up_is_bit_identical() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 9);
        for cl in 0..4 {
            c.associate(&w, &mut s, ClientId(cl), &NullSink);
        }
        let plain = c.total_throughput_bps(&w, &s, &[]);
        let masked = c.total_throughput_bps(&w, &s, &[true, true]);
        assert_eq!(plain.to_bits(), masked.to_bits());
        // One AP down: exactly its cell's contribution disappears.
        let partial = c.total_throughput_bps(&w, &s, &[true, false]);
        let ap1 = c.total_throughput_bps(&w, &s, &[false, true]);
        assert!((plain - ap1 - partial).abs() < 1.0);
    }

    #[test]
    fn sharded_reallocation_matches_plain_on_a_connected_wlan() {
        // Two APs 60 m apart interfere, so the conflict graph is one
        // component and the sharded entry point must reproduce the plain
        // hedged reallocation bit-for-bit (same seed scheme, same ties).
        let w = wlan();
        let c = controller();
        let mut s_plain = c.new_state(&w, 11);
        for cl in 0..4 {
            c.associate(&w, &mut s_plain, ClientId(cl), &NullSink);
        }
        let mut s_shard = s_plain.clone();
        let r_plain = realloc(&c, &w, &mut s_plain, 3, 77, false);
        let r_shard = realloc(&c, &w, &mut s_shard, 3, 77, true);
        assert_eq!(s_plain.assignments, s_shard.assignments);
        assert_eq!(r_plain.total_bps.to_bits(), r_shard.total_bps.to_bits());
    }

    #[test]
    fn table_backed_controller_tracks_the_exact_one() {
        use acorn_phy::estimator::LinkQualityEstimator;
        let w = wlan();
        let exact = controller();
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let memo = AcornController::with_table(AcornConfig::default(), Arc::clone(&table));
        assert!(memo.table().is_some());

        // Association decisions agree: the table's goodput error is far
        // smaller than the SNR separation between these APs.
        let mut s_exact = exact.new_state(&w, 12);
        let mut s_memo = s_exact.clone();
        for cl in 0..4 {
            let a = exact.associate(&w, &mut s_exact, ClientId(cl), &NullSink);
            let b = memo.associate(&w, &mut s_memo, ClientId(cl), &NullSink);
            assert_eq!(a, b, "client {cl}");
        }

        // Advertised delays match within the table's documented budget.
        for snr in [2.0, 11.5, 23.0, 37.25] {
            for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                let d_exact = exact.delay_from_snr(snr, width);
                let d_memo = memo.delay_from_snr(snr, width);
                assert!(
                    (d_exact - d_memo).abs() / d_exact < 1e-2,
                    "snr {snr} {width:?}: {d_exact} vs {d_memo}"
                );
            }
        }

        // Reallocation through the table-backed model lands on an
        // equivalent plan, and the table actually served the queries.
        let before = table.stats().hits;
        let r = realloc(&memo, &w, &mut s_memo, 2, 5, true);
        assert!(r.total_bps > 0.0);
        assert!(!s_memo.assignments[0].conflicts(s_memo.assignments[1]));
        assert!(table.stats().hits > before, "model must query the table");
    }

    #[test]
    fn table_epoch_flush_reports_table_counters() {
        use acorn_phy::estimator::LinkQualityEstimator;
        let w = wlan();
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.25,
        ));
        let memo = AcornController::with_table(AcornConfig::default(), table);
        let mut s = memo.new_state(&w, 13);
        for cl in 0..4 {
            memo.associate(&w, &mut s, ClientId(cl), &NullSink);
        }
        let sink = RecordingSink::new();
        let model = memo.build_model(&w, &s);
        memo.reallocate(&model, &mut s, 2, 5, true, &sink);
        sink.with_telemetry(|t| {
            assert!(t.counter(names::ALLOC_SHARDS) >= 1);
            assert!(t.counter(names::TABLE_HITS) > 0);
            assert_eq!(t.counter(names::TABLE_REBUILDS), 1);
            assert!(t.gauge(names::TABLE_MAX_QUANT_ERROR).is_some());
        });
    }

    /// Two distant AP pairs: the conflict graph has exactly two
    /// components, so the zone-view entry must replay each shard of the
    /// centralized sharded reallocation bit-for-bit.
    fn two_zone_wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(5000.0, 0.0),
                Point::new(5060.0, 0.0),
            ],
            vec![
                Point::new(3.0, 0.0),
                Point::new(57.0, 0.0),
                Point::new(5003.0, 0.0),
                Point::new(5057.0, 0.0),
            ],
            21,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w.radio.tx_power_dbm = 5.0;
        w
    }

    #[test]
    fn zone_view_replays_the_sharded_reallocation_exactly() {
        let w = two_zone_wlan();
        let c = controller();
        let mut s_central = c.new_state(&w, 31);
        for cl in 0..4 {
            c.associate(&w, &mut s_central, ClientId(cl), &NullSink);
        }
        let mut s_zones = s_central.clone();

        let zones = c.zones(&w, &s_zones);
        assert_eq!(zones.len(), 2, "distant pairs must split into two zones");
        assert_eq!(zones[0], vec![0, 1]);
        assert_eq!(zones[1], vec![2, 3]);

        for (restarts, seed) in [(0usize, 7u64), (3, 7), (2, 991)] {
            let central = realloc(&c, &w, &mut s_central, restarts, seed, true);
            // Zone controllers: each restricts the shared model and solves
            // only its own slice, in any order (slices are disjoint).
            let model = c.build_model(&w, &s_zones);
            for (z, nodes) in zones.iter().enumerate().rev() {
                let initial: Vec<_> = nodes.iter().map(|&n| s_zones.assignments[n]).collect();
                let spec = AllocSpec {
                    initial: Some(&initial),
                    restarts,
                    seed,
                    component: z,
                };
                let r = allocate(
                    &model.restrict(nodes),
                    &c.config.plan,
                    &c.config.allocation,
                    &spec,
                    &NullSink,
                );
                for (local, &global) in nodes.iter().enumerate() {
                    s_zones.assignments[global] = r.assignments[local];
                    s_zones.operating_width[global] = r.assignments[local].width();
                }
            }
            assert_eq!(
                s_central.assignments, s_zones.assignments,
                "restarts={restarts} seed={seed}"
            );
            assert_eq!(s_central.operating_width, s_zones.operating_width);
            assert!(central.total_bps > 0.0);
        }
    }

    #[test]
    fn total_throughput_sums_cells() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 8);
        for cl in 0..3 {
            c.associate(&w, &mut s, ClientId(cl), &NullSink);
        }
        let total = c.total_throughput_bps(&w, &s, &[]);
        let sum: f64 = (0..2)
            .map(|i| {
                let only: Vec<bool> = (0..2).map(|j| j == i).collect();
                c.total_throughput_bps(&w, &s, &only)
            })
            .sum();
        assert!((total - sum).abs() < 1.0);
        assert!(total > 0.0);
    }

    /// A state holding `assignments` at full width, for models built
    /// without a deployment.
    fn state_of(assignments: &[ChannelAssignment]) -> NetworkState {
        NetworkState {
            assignments: assignments.to_vec(),
            assoc: Vec::new(),
            operating_width: assignments.iter().map(|a| a.width()).collect(),
        }
    }

    fn model_of(snrs_per_ap: &[&[f64]], graph: acorn_topology::InterferenceGraph) -> NetworkModel {
        let cells = snrs_per_ap
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        NetworkModel::new(graph, cells)
    }

    #[test]
    fn sharded_on_connected_graph_matches_the_unsharded_composition() {
        // A connected graph is one component: the per-component epoch is
        // the start-then-hedge composition on the full model, bit for bit
        // — the hedge replaces the start only on a strict gain.
        let m = model_of(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            acorn_topology::InterferenceGraph::complete(3),
        );
        let c = AcornController::new(AcornConfig {
            plan: ChannelPlan::restricted(4),
            ..AcornConfig::default()
        });
        let (plan, cfg) = (&c.config.plan, &c.config.allocation);
        for (restarts, seed) in [(4usize, 11u64), (1, 0), (6, 99)] {
            for init_seed in 0..6 {
                let initial = random_initial(plan, 3, init_seed);
                let mut s = state_of(&initial);
                let sharded = c.reallocate(&m, &mut s, restarts, seed, true, &NullSink);
                let start = AllocSpec {
                    initial: Some(&initial),
                    ..AllocSpec::default()
                };
                let best = allocate(&m, plan, cfg, &start, &NullSink);
                let hedge = AllocSpec {
                    restarts,
                    seed,
                    ..AllocSpec::default()
                };
                let hedged = allocate(&m, plan, cfg, &hedge, &NullSink);
                let expect = if hedged.total_bps > best.total_bps {
                    hedged
                } else {
                    best
                };
                assert_eq!(sharded, expect, "restarts {restarts} seed {seed}");
            }
        }
    }

    #[test]
    fn sharded_multi_component_solves_each_shard_independently() {
        // Two components: a triangle {0,1,2} and an edge {3,4}.
        let g = acorn_topology::InterferenceGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let m = model_of(&[&[30.0], &[5.0, 4.0], &[20.0], &[28.0], &[12.0]], g);
        let c = AcornController::new(AcornConfig {
            plan: ChannelPlan::restricted(4),
            ..AcornConfig::default()
        });
        let (restarts, seed) = (3usize, 17u64);
        let initial = random_initial(&c.config.plan, 5, 2);
        let mut s = state_of(&initial);
        let merged = c.reallocate(&m, &mut s, restarts, seed, true, &NullSink);
        assert_eq!(s.assignments, merged.assignments);

        // Every component's slice of the merged assignment must equal the
        // start-then-hedge composition on that component's restricted
        // model, with the hedge seeds offset by s·restarts.
        let cfg = &c.config.allocation;
        for (k, nodes) in m.graph.connected_components().iter().enumerate() {
            let sub = m.restrict(nodes);
            let init: Vec<_> = nodes.iter().map(|&i| initial[i]).collect();
            let start = AllocSpec {
                initial: Some(&init),
                ..AllocSpec::default()
            };
            let best = allocate(&sub, &c.config.plan, cfg, &start, &NullSink);
            let hedge = AllocSpec {
                restarts,
                seed: seed.wrapping_add((k * restarts) as u64),
                ..AllocSpec::default()
            };
            let hedged = allocate(&sub, &c.config.plan, cfg, &hedge, &NullSink);
            let expect = if hedged.total_bps > best.total_bps {
                hedged
            } else {
                best
            };
            for (local, &global) in nodes.iter().enumerate() {
                assert_eq!(
                    merged.assignments[global], expect.assignments[local],
                    "component {k}, AP {global}"
                );
            }
        }
        // The merged headline number is one full-model evaluation.
        assert_eq!(
            merged.total_bps.to_bits(),
            m.total_bps(&merged.assignments).to_bits()
        );
    }

    #[test]
    fn sharded_never_decreases_throughput_and_records_shards() {
        let g = acorn_topology::InterferenceGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let m = model_of(&[&[30.0], &[5.0], &[20.0], &[28.0], &[12.0], &[7.0]], g);
        let c = AcornController::new(AcornConfig {
            plan: ChannelPlan::restricted(4),
            ..AcornConfig::default()
        });
        let initial = random_initial(&c.config.plan, 6, 9);
        let y0 = m.total_bps(&initial);
        for per_component in [true, false] {
            let sink = RecordingSink::new();
            let mut s = state_of(&initial);
            let r = c.reallocate(&m, &mut s, 2, 3, per_component, &sink);
            assert!(r.total_bps + 1e-6 >= y0);
            // One start plus two restarts per component, or per network.
            let attempts = if per_component { 3 } else { 1 };
            sink.with_telemetry(|t| {
                let shards = if per_component { 3 } else { 0 };
                assert_eq!(t.counter(names::ALLOC_SHARDS), shards);
                assert_eq!(t.counter(names::ALLOC_RESTARTS), attempts * 2);
                assert_eq!(t.counter(names::ALLOC_RUNS), attempts * 3);
            });
        }
    }
}
