//! Per-transmission dynamic channel bonding on the event runtime, and
//! the high-density overlapping-BSS scenario family it runs in.
//!
//! The composite and city scenarios treat a cell's width as
//! epoch-static: whatever the allocator handed out is what every
//! transmission uses until the next reallocation. This module adds the
//! per-transmission layer ROADMAP item 3 calls for: each AP runs an
//! attempt/transmit loop on the shared virtual clock, carrier-senses its
//! allocated channels against the transmissions its interference-graph
//! neighbours currently hold, and asks a [`DcbPolicy`] — always-max,
//! static-primary, probabilistic, or occupancy-aware — which width this
//! one transmission should use, within the epoch allocation's ceiling.
//!
//! The traffic dynamics are deliberately the Faridi-style stochastic
//! model ([`CtmcParams`]): idle APs attempt at exponential rate `λ`
//! (blocked attempts re-arm — memorylessness makes that exactly a
//! censored Poisson process), transmissions complete at `μ₂₀` or
//! `μ₄₀ = 2·μ₂₀`. For the memoryless policy families the run is then an
//! exact sample path of `acorn_dcb::ctmc`'s chain, which is what lets
//! `tests/dcb.rs` gate simulator throughput against the closed-form
//! stationary solution — an independent cross-check in the spirit of
//! PR 2's baseband calibration. The occupancy-aware family (EWMA state)
//! runs on the same machinery but has no chain to compare to.
//!
//! [`OverlappingBssGrid`] is the scenario substrate: a dense grid with
//! kings-move interference adjacency where every interior cell contends
//! with eight neighbours over a handful of channels — unlike
//! `city_grid`'s interference-isolated districts, the spectrum here is
//! *genuinely shared* across the whole deployment (the graph is one
//! connected component), which is exactly the regime dynamic bonding
//! policies differ in.

use crate::faults::FaultRng;
use crate::sim::{Ctx, Process, Simulation};
use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::model::{ClientSnr, NetworkModel};
use acorn_dcb::{CtmcParams, DcbPolicy, OccupancyObservation, PolicyKind};
use acorn_obs::NullSink;
use acorn_topology::{ApId, Channel20, ChannelAssignment, ChannelPlan, InterferenceGraph};

/// Stream salts for the per-event splitmix64 draws.
const SALT_GAP: u64 = 0x11;
const SALT_SERVICE: u64 = 0x12;
const SALT_POLICY: u64 = 0x13;
const SALT_SNR: u64 = 0x14;

/// Events of the DCB transmission loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DcbEvent {
    /// AP's backoff expired: sense, decide a width, maybe transmit.
    Attempt(usize),
    /// AP's in-flight transmission completed.
    TxEnd(usize),
}

/// Shared world of a DCB run: who is transmitting on what, and the
/// occupancy estimates the adaptive policy feeds on.
#[derive(Debug)]
pub struct DcbWorld {
    /// Interference graph (footnote-5 semantics: an edge means the two
    /// APs carrier-sense each other).
    pub graph: InterferenceGraph,
    /// The epoch plan's per-AP allocation — the ceiling every
    /// per-transmission decision narrows from.
    pub alloc: Vec<ChannelAssignment>,
    /// Channelization of each AP's in-flight transmission, if any.
    active: Vec<Option<ChannelAssignment>>,
    /// EWMA busy fraction of each AP's primary channel (NaN before the
    /// first sample — policies must cope, and the proptests check they
    /// do).
    ewma_primary: Vec<f64>,
    /// EWMA busy fraction of each AP's secondary channel (NaN when the
    /// allocation has no secondary).
    ewma_secondary: Vec<f64>,
    /// Completed transmissions per AP at each width.
    completions20: Vec<u64>,
    /// Completed 40 MHz transmissions per AP.
    completions40: Vec<u64>,
    /// Attempts abandoned because the primary was busy.
    blocked: Vec<u64>,
    /// Virtual seconds each AP spent transmitting at 40 MHz.
    tx40_time_s: Vec<f64>,
    /// Start time of the in-flight transmission.
    tx_started_s: Vec<f64>,
}

impl DcbWorld {
    /// A world with no transmissions in flight and cold occupancy
    /// estimates.
    pub fn new(graph: InterferenceGraph, alloc: Vec<ChannelAssignment>) -> DcbWorld {
        let n = graph.len();
        assert_eq!(n, alloc.len(), "one allocation per AP");
        DcbWorld {
            graph,
            alloc,
            active: vec![None; n],
            ewma_primary: vec![f64::NAN; n],
            ewma_secondary: vec![f64::NAN; n],
            completions20: vec![0; n],
            completions40: vec![0; n],
            blocked: vec![0; n],
            tx40_time_s: vec![0.0; n],
            tx_started_s: vec![0.0; n],
        }
    }

    /// Whether any active neighbour of `ap` currently occupies `ch`.
    fn channel_busy(&self, ap: usize, ch: Channel20) -> bool {
        self.graph
            .neighbors(ApId(ap))
            .any(|j| self.active[j.0].map_or(false, |a| a.occupied().any(|c| c == ch)))
    }
}

/// The per-AP attempt/transmit loop, one process driving all APs.
pub struct DcbDriver<P> {
    policy: P,
    params: CtmcParams,
    seed: u64,
    /// EWMA smoothing factor for the occupancy estimates in `(0, 1]`.
    ewma_alpha: f64,
    horizon_s: f64,
}

impl<P: DcbPolicy> DcbDriver<P> {
    /// A driver with the given policy, traffic model and seed.
    pub fn new(policy: P, params: CtmcParams, seed: u64, ewma_alpha: f64, horizon_s: f64) -> Self {
        DcbDriver {
            policy,
            params,
            seed,
            ewma_alpha,
            horizon_s,
        }
    }

    fn exp(&self, rng: &mut FaultRng, rate_hz: f64) -> f64 {
        -rng.u01_open().ln() / rate_hz
    }

    fn schedule_attempt(
        &self,
        ap: usize,
        rng: &mut FaultRng,
        ctx: &mut Ctx<'_, DcbWorld, DcbEvent>,
    ) {
        let t = ctx.now() + self.exp(rng, self.params.attempt_rate_hz);
        if t <= self.horizon_s {
            ctx.schedule_at(t, DcbEvent::Attempt(ap));
        }
    }

    fn update_ewma(slot: &mut f64, alpha: f64, sample: f64) {
        *slot = if slot.is_nan() {
            sample
        } else {
            alpha * sample + (1.0 - alpha) * *slot
        };
    }
}

impl<P: DcbPolicy> Process<DcbWorld, DcbEvent> for DcbDriver<P> {
    fn start(&mut self, ctx: &mut Ctx<'_, DcbWorld, DcbEvent>) {
        for ap in 0..ctx.world.graph.len() {
            let mut rng = FaultRng::new(self.seed, ap as u64, SALT_GAP);
            self.schedule_attempt(ap, &mut rng, ctx);
        }
    }

    fn handle(&mut self, event: &DcbEvent, ctx: &mut Ctx<'_, DcbWorld, DcbEvent>) {
        match *event {
            DcbEvent::Attempt(ap) => {
                let mut rng = FaultRng::new(self.seed, ctx.event_seq(), SALT_POLICY);
                let allocated = ctx.world.alloc[ap];
                let primary = allocated.primary();
                let primary_busy = ctx.world.channel_busy(ap, primary);
                let secondary = match allocated {
                    ChannelAssignment::Bonded(c) => Some(Channel20(c.0 + 1)),
                    ChannelAssignment::Single(_) => None,
                };
                let secondary_busy_now = secondary.map(|ch| ctx.world.channel_busy(ap, ch));
                let alpha = self.ewma_alpha;
                Self::update_ewma(
                    &mut ctx.world.ewma_primary[ap],
                    alpha,
                    if primary_busy { 1.0 } else { 0.0 },
                );
                if let Some(busy) = secondary_busy_now {
                    Self::update_ewma(
                        &mut ctx.world.ewma_secondary[ap],
                        alpha,
                        if busy { 1.0 } else { 0.0 },
                    );
                }
                ctx.telemetry.inc("dcb.attempts");
                if primary_busy {
                    // Censored attempt: the primary is held by a
                    // neighbour. Memorylessness makes re-arming at Exp(λ)
                    // identical to the CTMC's disabled transition.
                    ctx.world.blocked[ap] += 1;
                    ctx.telemetry.inc("dcb.blocked");
                    self.schedule_attempt(ap, &mut rng, ctx);
                    return;
                }
                let obs = OccupancyObservation {
                    primary_busy: ctx.world.ewma_primary[ap],
                    secondary_busy: ctx.world.ewma_secondary[ap],
                    secondary_idle_now: secondary_busy_now == Some(false),
                };
                let mut chosen = self.policy.choose(allocated, &obs, rng.u01());
                // Defence in depth: a policy violating its contract must
                // still never transmit over a busy secondary or outside
                // its allocation.
                let legal = chosen
                    .occupied()
                    .all(|c| allocated.occupied().any(|a| a == c))
                    && (chosen.width() == acorn_phy::ChannelWidth::Ht20
                        || secondary_busy_now == Some(false));
                if !legal {
                    chosen = allocated.fallback_20();
                }
                ctx.world.active[ap] = Some(chosen);
                ctx.world.tx_started_s[ap] = ctx.now();
                let mut srv = FaultRng::new(self.seed, ctx.event_seq(), SALT_SERVICE);
                let rate = match chosen.width() {
                    acorn_phy::ChannelWidth::Ht40 => 2.0 * self.params.service_rate20_hz,
                    acorn_phy::ChannelWidth::Ht20 => self.params.service_rate20_hz,
                };
                ctx.telemetry.inc(match chosen.width() {
                    acorn_phy::ChannelWidth::Ht40 => "dcb.tx40",
                    acorn_phy::ChannelWidth::Ht20 => "dcb.tx20",
                });
                ctx.schedule_after(self.exp(&mut srv, rate), DcbEvent::TxEnd(ap));
            }
            DcbEvent::TxEnd(ap) => {
                let mut rng = FaultRng::new(self.seed, ctx.event_seq(), SALT_GAP);
                match ctx.world.active[ap].take() {
                    Some(a) if a.width() == acorn_phy::ChannelWidth::Ht40 => {
                        ctx.world.completions40[ap] += 1;
                        let dt = ctx.now() - ctx.world.tx_started_s[ap];
                        ctx.world.tx40_time_s[ap] += dt;
                    }
                    Some(_) => ctx.world.completions20[ap] += 1,
                    None => unreachable!("TxEnd without an in-flight transmission"),
                }
                self.schedule_attempt(ap, &mut rng, ctx);
            }
        }
    }
}

/// Result of one DCB run.
#[derive(Debug, Clone, PartialEq)]
pub struct DcbReport {
    /// Long-run per-AP throughput (bits/s): completions × payload over
    /// the horizon.
    pub per_ap_bps: Vec<f64>,
    /// 20 MHz completions per AP.
    pub completions20: Vec<u64>,
    /// 40 MHz completions per AP.
    pub completions40: Vec<u64>,
    /// Attempts censored by a busy primary, per AP.
    pub blocked: Vec<u64>,
    /// Fraction of the horizon each AP spent transmitting at 40 MHz.
    pub tx40_time_fraction: Vec<f64>,
    /// Events dispatched.
    pub events: u64,
}

impl DcbReport {
    /// Aggregate network throughput (bits/s).
    pub fn total_bps(&self) -> f64 {
        self.per_ap_bps.iter().sum()
    }
}

/// A self-contained DCB run: graph + epoch allocation + policy + traffic
/// model, executed on the deterministic event runtime.
#[derive(Debug, Clone)]
pub struct DcbScenario {
    /// Interference graph.
    pub graph: InterferenceGraph,
    /// Epoch allocation (the per-transmission ceiling).
    pub alloc: Vec<ChannelAssignment>,
    /// Width decision policy.
    pub policy: PolicyKind,
    /// Traffic model shared with the CTMC cross-check.
    pub params: CtmcParams,
    /// Virtual horizon (s).
    pub horizon_s: f64,
    /// Seed of every stochastic stream in the run.
    pub seed: u64,
    /// EWMA smoothing factor for occupancy estimates.
    pub ewma_alpha: f64,
}

impl DcbScenario {
    /// A scenario with the default traffic model, a 20 000 s horizon and
    /// `α = 0.05` occupancy smoothing.
    pub fn new(
        graph: InterferenceGraph,
        alloc: Vec<ChannelAssignment>,
        policy: PolicyKind,
        seed: u64,
    ) -> DcbScenario {
        DcbScenario {
            graph,
            alloc,
            policy,
            params: CtmcParams::default(),
            horizon_s: 20_000.0,
            seed,
            ewma_alpha: 0.05,
        }
    }

    /// Runs the scenario to its horizon and reports. Deterministic: the
    /// report is a pure function of the scenario fields (the run is a
    /// single sequential event loop — `ACORN_THREADS` cannot perturb it,
    /// and `tests/determinism.rs` pins that bit-for-bit).
    pub fn run(&self) -> DcbReport {
        let world = DcbWorld::new(self.graph.clone(), self.alloc.clone());
        let mut sim: Simulation<DcbWorld, DcbEvent> = Simulation::new(world);
        sim.add_process(Box::new(DcbDriver::new(
            self.policy,
            self.params,
            self.seed,
            self.ewma_alpha,
            self.horizon_s,
        )));
        let stats = sim.run(self.horizon_s);
        let w = &sim.world;
        let per_ap_bps = (0..w.graph.len())
            .map(|i| {
                (w.completions20[i] + w.completions40[i]) as f64 * self.params.payload_bits
                    / self.horizon_s
            })
            .collect();
        DcbReport {
            per_ap_bps,
            completions20: w.completions20.clone(),
            completions40: w.completions40.clone(),
            blocked: w.blocked.clone(),
            tx40_time_fraction: w.tx40_time_s.iter().map(|&t| t / self.horizon_s).collect(),
            events: stats.events,
        }
    }
}

/// A dense deployment where bonding decisions genuinely interact: `nx ×
/// ny` APs on a grid with kings-move (8-neighbour) interference
/// adjacency and only `n_channels` 20 MHz channels to share. Interior
/// cells contend with eight neighbours, the conflict graph is one
/// connected component (no district isolation to hide behind), and with
/// `n_channels = 4` a 3×3 block already cannot colour itself
/// conflict-free — exactly the high-density overlapping-BSS regime the
/// DCB papers study, and the substrate ROADMAP item 2's cross-zone
/// negotiation asked for.
#[derive(Debug, Clone, Copy)]
pub struct OverlappingBssGrid {
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Clients per AP.
    pub clients_per_ap: usize,
    /// 20 MHz channels available to everyone.
    pub n_channels: u8,
    /// Seed for the deterministic client SNR draws.
    pub seed: u64,
}

impl OverlappingBssGrid {
    /// The kings-move interference graph (one connected component for
    /// any non-degenerate grid).
    pub fn graph(&self) -> InterferenceGraph {
        let n = self.nx * self.ny;
        let mut g = InterferenceGraph::new(n);
        let id = |x: usize, y: usize| y * self.nx + x;
        for y in 0..self.ny {
            for x in 0..self.nx {
                for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                    let (nx2, ny2) = (x as i64 + dx, y as i64 + dy);
                    if nx2 >= 0 && ny2 >= 0 && (nx2 as usize) < self.nx && (ny2 as usize) < self.ny
                    {
                        g.add_edge(ApId(id(x, y)), ApId(id(nx2 as usize, ny2 as usize)));
                    }
                }
            }
        }
        g
    }

    /// The shared channel plan.
    pub fn plan(&self) -> ChannelPlan {
        ChannelPlan::restricted(self.n_channels)
    }

    /// The throughput model: per-AP client SNRs drawn deterministically
    /// in 12–36 dB (a mix of bond-loving strong links and width-averse
    /// weak ones).
    pub fn model(&self) -> NetworkModel {
        let n = self.nx * self.ny;
        let cells = (0..n)
            .map(|ap| {
                let mut rng = FaultRng::new(self.seed, ap as u64, SALT_SNR);
                (0..self.clients_per_ap)
                    .map(|c| ClientSnr {
                        client: ap * self.clients_per_ap + c,
                        snr20_db: 12.0 + 24.0 * rng.u01(),
                    })
                    .collect()
            })
            .collect();
        NetworkModel::new(self.graph(), cells)
    }

    /// The epoch allocation ACORN's greedy (with restarts) hands this
    /// deployment — the ceiling the DCB policies then narrow
    /// per-transmission.
    pub fn epoch_alloc(&self, restarts: usize) -> Vec<ChannelAssignment> {
        let model = self.model();
        let spec = AllocSpec {
            restarts,
            seed: self.seed,
            ..AllocSpec::default()
        };
        allocate(
            &model,
            &self.plan(),
            &AllocationConfig::default(),
            &spec,
            &NullSink,
        )
        .assignments
    }

    /// A ready-to-run DCB scenario over this deployment.
    pub fn scenario(&self, policy: PolicyKind, restarts: usize) -> DcbScenario {
        DcbScenario::new(self.graph(), self.epoch_alloc(restarts), policy, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k2_shared() -> (InterferenceGraph, Vec<ChannelAssignment>) {
        // Two neighbours whose 40 MHz allocations overlap on channel 1:
        // bonding is only ever possible while the other is silent.
        let g = InterferenceGraph::complete(2);
        let alloc = vec![
            match ChannelAssignment::bonded(Channel20(0)) {
                Some(b) => b,
                None => unreachable!("even lower"),
            },
            ChannelAssignment::Single(Channel20(1)),
        ];
        (g, alloc)
    }

    #[test]
    fn static_primary_never_transmits_at_40() {
        let (g, alloc) = k2_shared();
        let mut s = DcbScenario::new(g, alloc, PolicyKind::StaticPrimary, 7);
        s.horizon_s = 2_000.0;
        let r = s.run();
        assert_eq!(r.completions40.iter().sum::<u64>(), 0);
        assert!(r.completions20.iter().sum::<u64>() > 0);
        assert!(r.tx40_time_fraction.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn always_max_bonds_when_the_spectrum_allows() {
        let (g, alloc) = k2_shared();
        let mut s = DcbScenario::new(g, alloc, PolicyKind::AlwaysMax, 7);
        s.horizon_s = 2_000.0;
        let r = s.run();
        assert!(r.completions40[0] > 0, "AP 0 must bond sometimes");
        assert_eq!(r.completions40[1], 0, "20 MHz allocation cannot widen");
    }

    #[test]
    fn runs_are_reproducible() {
        let grid = OverlappingBssGrid {
            nx: 3,
            ny: 3,
            clients_per_ap: 2,
            n_channels: 4,
            seed: 42,
        };
        let mut s = grid.scenario(PolicyKind::OccupancyAware(0.3), 4);
        s.horizon_s = 1_000.0;
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b);
    }

    #[test]
    fn dense_grid_is_one_connected_component() {
        let grid = OverlappingBssGrid {
            nx: 4,
            ny: 4,
            clients_per_ap: 1,
            n_channels: 4,
            seed: 1,
        };
        let g = grid.graph();
        assert_eq!(
            g.connected_components().len(),
            1,
            "spectrum is genuinely shared — no district isolation"
        );
        // Interior cells contend with all eight neighbours.
        assert_eq!(g.degree(ApId(5)), 8);
        // And the epoch plan cannot separate everyone: some edge shares
        // spectrum, so DCB has real work to do.
        let alloc = grid.epoch_alloc(4);
        let conflicted =
            (0..16).any(|i| g.neighbors(ApId(i)).any(|j| alloc[i].conflicts(alloc[j.0])));
        assert!(
            conflicted,
            "4 channels cannot isolate a kings-move 4×4 grid"
        );
    }

    #[test]
    fn probabilistic_interpolates_bonding_usage() {
        let (g, alloc) = k2_shared();
        let run = |p: f64| {
            let mut s =
                DcbScenario::new(g.clone(), alloc.clone(), PolicyKind::Probabilistic(p), 11);
            s.horizon_s = 4_000.0;
            s.run().completions40[0]
        };
        let none = run(0.0);
        let half = run(0.5);
        let full = run(1.0);
        assert_eq!(none, 0);
        assert!(half > 0 && full > half, "{none} {half} {full}");
    }
}
