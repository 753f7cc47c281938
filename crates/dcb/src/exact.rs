//! Exact optimal channel allocation by branch-and-bound — the greedy's
//! yardstick.
//!
//! Kai et al. (arXiv:1703.03909) compute *optimal* channel-bonding
//! allocations; here that role is played by a deterministic
//! branch-and-bound search over the full colour space
//! `plan.all_assignments()^n`, exact on topologies small enough to
//! enumerate. Its purpose is not production allocation — it is the
//! instrument that turns "Algorithm 2 looks good" into a **measured
//! approximation gap**: `BENCH_dcb.json` records greedy vs. exact totals
//! on enumerable topologies and `tests/dcb.rs` CI-gates the ratio.
//!
//! The admissible bound: APs are assigned one at a time (highest degree
//! first). For a partial assignment, every *assigned* AP is scored
//! against the assigned-only interference subgraph — adding APs can only
//! add conflicts, and `acorn_mac::contention::access_share` is
//! non-increasing in the conflict set, so that score upper-bounds the
//! AP's final throughput. Every *unassigned* AP is bounded by its
//! isolated best width ([`NetworkModel::isolated_best_bps`]). Prune
//! whenever the bound cannot beat the incumbent; seed the incumbent with
//! the multi-restart greedy so the search starts with a strong lower
//! bound (and the returned optimum is never worse than the greedy, even
//! on a node-budget bail).

use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::model::{NetworkModel, ThroughputModel};
use acorn_core::NullSink;
use acorn_topology::{ApId, Channel20, ChannelAssignment, ChannelPlan};

/// Search limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactConfig {
    /// Maximum search-tree nodes to expand before bailing with
    /// `complete = false` (the incumbent — at least as good as the
    /// greedy — is still returned).
    pub node_budget: u64,
    /// Restarts used to seed the incumbent with the greedy allocator.
    pub seed_restarts: usize,
}

impl Default for ExactConfig {
    fn default() -> ExactConfig {
        ExactConfig {
            node_budget: 5_000_000,
            seed_restarts: 8,
        }
    }
}

/// Outcome of the exact search.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactResult {
    /// The best assignment found (the optimum when `complete`).
    pub assignments: Vec<ChannelAssignment>,
    /// Its aggregate throughput (bits/s).
    pub total_bps: f64,
    /// Search-tree nodes expanded.
    pub nodes_explored: u64,
    /// `true` iff the search ran to exhaustion — only then is
    /// `total_bps` certified optimal.
    pub complete: bool,
}

/// The measured approximation gap: `greedy / exact`, in `(0, 1]` when
/// both are positive (1.0 means the greedy found an optimum). Degenerate
/// non-positive exact totals (empty topologies) report 1.0.
pub fn greedy_vs_exact_gap(greedy_bps: f64, exact_bps: f64) -> f64 {
    if exact_bps <= 0.0 {
        1.0
    } else {
        greedy_bps / exact_bps
    }
}

/// Placeholder colours for not-yet-assigned APs: unique channels outside
/// any legal plan (plans cap at 12 channels), so they conflict with
/// nothing and each unassigned AP scores as contention-free.
const FAKE_BASE: u8 = 64;

struct Search<'a> {
    model: &'a NetworkModel,
    /// AP indices in branching order (degree descending, index ascending).
    order: Vec<usize>,
    colours: Vec<ChannelAssignment>,
    /// Suffix sums along `order` of each AP's `isolated_best −
    /// cell_base20` slack: `slack_after[k]` bounds what the APs not yet
    /// assigned once `order[..k]` are placed could still gain over their
    /// fake-colour (20 MHz, contention-free) scores.
    slack_after: Vec<f64>,
    current: Vec<ChannelAssignment>,
    best: Vec<ChannelAssignment>,
    best_total: f64,
    nodes: u64,
    budget: u64,
    complete: bool,
}

impl Search<'_> {
    fn dfs(&mut self, k: usize) {
        if self.nodes >= self.budget {
            self.complete = false;
            return;
        }
        self.nodes += 1;
        // `current` keeps fake colours on unassigned APs, so this total
        // already scores assigned APs against the assigned-only subgraph
        // and unassigned APs as contention-free 20 MHz cells.
        let padded_total = self.model.total_bps(&self.current);
        if k == self.order.len() {
            if padded_total > self.best_total {
                self.best_total = padded_total;
                self.best.copy_from_slice(&self.current);
            }
            return;
        }
        let bound = padded_total + self.slack_after[k];
        if bound <= self.best_total {
            return;
        }
        let ap = self.order[k];
        for ci in 0..self.colours.len() {
            let c = self.colours[ci];
            self.current[ap] = c;
            self.dfs(k + 1);
        }
        self.current[ap] = ChannelAssignment::Single(Channel20(FAKE_BASE + ap as u8));
    }
}

/// Exhaustive branch-and-bound optimal allocation of `model` over
/// `plan`'s colour space. Deterministic: fixed branching order, fixed
/// colour order, fixed greedy seed. Panics if the topology has more than
/// `64` APs — far past where exhaustive search is meaningful anyway.
pub fn allocate_exact(
    model: &NetworkModel,
    plan: &ChannelPlan,
    config: &ExactConfig,
) -> ExactResult {
    let n = model.n_aps();
    assert!(n <= 64, "exact search is a small-topology instrument");
    if n == 0 {
        return ExactResult {
            assignments: Vec::new(),
            total_bps: 0.0,
            nodes_explored: 0,
            complete: true,
        };
    }

    // Strong incumbent: the paper's greedy with restarts.
    let spec = AllocSpec {
        restarts: config.seed_restarts,
        seed: 0xD0CB,
        ..AllocSpec::default()
    };
    let greedy = allocate(model, plan, &AllocationConfig::default(), &spec, &NullSink);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(model.graph.degree(ApId(i))), i));

    let slack = |i: usize| {
        (model.isolated_best_bps(ApId(i))
            - model.cell_base_bps(ApId(i), acorn_phy::ChannelWidth::Ht20))
        .max(0.0)
    };
    let mut slack_after = vec![0.0; n + 1];
    for k in (0..n).rev() {
        slack_after[k] = slack_after[k + 1] + slack(order[k]);
    }

    let current: Vec<ChannelAssignment> = (0..n)
        .map(|i| ChannelAssignment::Single(Channel20(FAKE_BASE + i as u8)))
        .collect();
    let mut search = Search {
        model,
        order,
        colours: plan.all_assignments(),
        slack_after,
        current,
        best: greedy.assignments.clone(),
        best_total: model.total_bps(&greedy.assignments),
        nodes: 0,
        budget: config.node_budget,
        complete: true,
    };
    search.dfs(0);
    ExactResult {
        assignments: search.best,
        total_bps: search.best_total,
        nodes_explored: search.nodes,
        complete: search.complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::model::ClientSnr;
    use acorn_core::theory::y_star_bps;
    use acorn_topology::InterferenceGraph;

    fn cells(snrs: &[&[f64]]) -> Vec<Vec<ClientSnr>> {
        snrs.iter()
            .map(|cell| {
                cell.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect()
    }

    /// Two isolated APs: the optimum is each AP at its isolated best —
    /// exactly Y*.
    #[test]
    fn isolated_aps_reach_y_star() {
        let model = NetworkModel::new(InterferenceGraph::new(2), cells(&[&[30.0, 22.0], &[18.0]]));
        let plan = ChannelPlan::restricted(4);
        let r = allocate_exact(&model, &plan, &ExactConfig::default());
        assert!(r.complete);
        let ys = y_star_bps(&model);
        assert!(
            (r.total_bps - ys).abs() / ys < 1e-9,
            "{} vs {}",
            r.total_bps,
            ys
        );
    }

    /// Two interfering APs with 4 channels: the optimum separates them
    /// spectrally — no conflict remains.
    #[test]
    fn contending_pair_is_separated() {
        let model = NetworkModel::new(InterferenceGraph::complete(2), cells(&[&[28.0], &[26.0]]));
        let plan = ChannelPlan::restricted(4);
        let r = allocate_exact(&model, &plan, &ExactConfig::default());
        assert!(r.complete);
        assert!(!r.assignments[0].conflicts(r.assignments[1]));
        let ys = y_star_bps(&model);
        assert!((r.total_bps - ys).abs() / ys < 1e-9);
    }

    /// The certified optimum never loses to the greedy, and both respect
    /// the Y* ceiling.
    #[test]
    fn exact_dominates_greedy_and_respects_y_star() {
        // K4 with only 2 channels: real contention, bonds tempting but
        // expensive — a shape where greedy can stall.
        let model = NetworkModel::new(
            InterferenceGraph::complete(4),
            cells(&[&[31.0, 9.0], &[24.0], &[16.0, 12.0], &[7.5]]),
        );
        let plan = ChannelPlan::restricted(2);
        let r = allocate_exact(&model, &plan, &ExactConfig::default());
        assert!(r.complete);
        let spec = AllocSpec {
            restarts: 8,
            seed: 0xD0CB,
            ..AllocSpec::default()
        };
        let greedy = allocate(
            &model,
            &plan,
            &AllocationConfig::default(),
            &spec,
            &NullSink,
        );
        let gtotal = model.total_bps(&greedy.assignments);
        assert!(r.total_bps >= gtotal - 1e-9);
        assert!(r.total_bps <= y_star_bps(&model) + 1e-9);
        let gap = greedy_vs_exact_gap(gtotal, r.total_bps);
        assert!((0.0..=1.0 + 1e-12).contains(&gap));
    }

    /// A spent node budget bails incompletely but still returns at least
    /// the greedy incumbent; legality of every returned colour holds.
    #[test]
    fn node_budget_bails_to_the_incumbent() {
        let model = NetworkModel::new(
            InterferenceGraph::complete(5),
            cells(&[&[30.0], &[25.0], &[20.0], &[15.0], &[10.0]]),
        );
        let plan = ChannelPlan::restricted(4);
        let r = allocate_exact(
            &model,
            &plan,
            &ExactConfig {
                node_budget: 3,
                seed_restarts: 4,
            },
        );
        assert!(!r.complete);
        let spec = AllocSpec {
            restarts: 4,
            seed: 0xD0CB,
            ..AllocSpec::default()
        };
        let greedy = allocate(
            &model,
            &plan,
            &AllocationConfig::default(),
            &spec,
            &NullSink,
        );
        assert!(r.total_bps >= model.total_bps(&greedy.assignments) - 1e-9);
        assert!(r.assignments.iter().all(|&a| plan.contains(a)));
    }

    /// Brute-force oracle: on a tiny instance the branch-and-bound equals
    /// plain exhaustive enumeration.
    #[test]
    fn matches_brute_force_enumeration() {
        let model = NetworkModel::new(
            InterferenceGraph::from_edges(3, &[(0, 1), (1, 2)]),
            cells(&[&[27.0], &[14.0, 21.0], &[9.0]]),
        );
        let plan = ChannelPlan::restricted(2);
        let r = allocate_exact(&model, &plan, &ExactConfig::default());
        assert!(r.complete);
        let colours = plan.all_assignments();
        let mut best = f64::NEG_INFINITY;
        for a in &colours {
            for b in &colours {
                for c in &colours {
                    best = best.max(model.total_bps(&[*a, *b, *c]));
                }
            }
        }
        assert!(
            (r.total_bps - best).abs() < 1e-9,
            "{} vs {}",
            r.total_bps,
            best
        );
    }
}
