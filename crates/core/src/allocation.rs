//! Algorithm 2 — ACORN's channel-bonding selection / channel allocation.
//!
//! The problem (§4.2): assign each AP a basic colour (20 MHz channel) or a
//! composite colour (bonded 40 MHz channel) to maximize aggregate network
//! throughput `Y = Σ_i X_i(F)` (Eq. 5). The decision version is
//! NP-complete (reduction from graph k-colouring — see
//! [`crate::theory`]), so ACORN runs an iterative greedy:
//!
//! 1. Every AP that has not yet switched in this round evaluates every
//!    colour, assuming all other APs keep their current colours, and
//!    computes its `rank` — the aggregate-throughput gain of its best
//!    switch.
//! 2. The max-rank AP (the "winner") switches; it is removed from the
//!    round's eligible set.
//! 3. Repeat within the round until no eligible AP has a positive rank;
//!    repeat rounds until the improvement falls below the ε = 1.05
//!    stopping rule ("if there is a 5 % or less increase in the total
//!    aggregate throughput as compared to the previous iteration, the
//!    algorithm stops").
//!
//! This mimics gradient descent on the throughput landscape; its
//! worst-case approximation ratio is O(1/(Δ+1)) ([`crate::theory`]), but
//! §5.2 shows it does far better in practice.
//!
//! ## Evaluation engine
//!
//! Candidate scoring uses [`ThroughputModel::best_switch`] and fans the
//! per-AP ranking out over [`crate::par::par_map`]. A switch only
//! perturbs the AP and its neighbours, so on
//! [`NetworkModel`](crate::model::NetworkModel) a whole colour scan
//! groups the neighbours once by the 20 MHz channels they occupy and
//! scores each colour with a few bit-set operations plus one add per
//! neighbour whose edge the colour changes, in neighbour order, so every
//! gain equals the per-colour [`ThroughputModel::delta_bps`] fold bit for
//! bit. Restarts parallelize across seeds the same way. Both reductions
//! are order-stable, so results are bit-identical for every thread count
//! (`ACORN_THREADS=1` included).
//!
//! [`allocate`] is the one entry point: the greedy under its restart
//! hedge, on one model. A deployment whose conflict graph falls apart
//! into components is split by
//! [`AcornController::reallocate`](crate::controller::AcornController::reallocate),
//! which calls it once per component.

use crate::model::ThroughputModel;
use crate::par;
use acorn_obs::{names, Sink};
use acorn_topology::{ApId, ChannelAssignment, ChannelPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationConfig {
    /// Stopping rule: continue rounds only while
    /// `Y_new > epsilon · Y_old`. The paper uses ε = 1.05.
    pub epsilon: f64,
    /// Hard cap on rounds (safety; the paper's algorithm converges long
    /// before this).
    pub max_rounds: usize,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            epsilon: 1.05,
            max_rounds: 32,
        }
    }
}

/// Output of one allocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationResult {
    /// The final channel assignment `F`.
    pub assignments: Vec<ChannelAssignment>,
    /// Aggregate predicted throughput of the final assignment (bits/s).
    pub total_bps: f64,
    /// Number of single-AP evaluation iterations performed (the paper's
    /// `k` counter).
    pub iterations: usize,
    /// Number of actual channel switches.
    pub switches: usize,
    /// Aggregate throughput after each switch (for convergence plots).
    pub history_bps: Vec<f64>,
}

/// Draws the random initial assignment of Algorithm 2: "Initially, all
/// APs are assigned either a 20 MHz or a 40 MHz channel at random."
pub fn random_initial(plan: &ChannelPlan, n_aps: usize, seed: u64) -> Vec<ChannelAssignment> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = plan.all_assignments();
    (0..n_aps)
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect()
}

/// Where one [`allocate`] call starts and how it hedges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocSpec<'a> {
    /// The deployed assignment to continue from (attempt 0), or `None` to
    /// start from random assignments only.
    pub initial: Option<&'a [ChannelAssignment]>,
    /// Random restarts hedging the start (attempts `1..=restarts`).
    pub restarts: usize,
    /// Base seed of the restart schedule.
    pub seed: u64,
    /// The model's position in the canonical component order (0 for a
    /// whole network): component `s` draws attempt `k` from seed
    /// `seed + s·restarts + k − 1`, so the components of one network
    /// never share a restart seed.
    pub component: usize,
}

/// Algorithm 2 with its restart hedge: the greedy from `spec.initial`
/// (attempt 0) and from `spec.restarts` random assignments (attempts
/// `1..=restarts`), keeping the best outcome. A standard hedge for
/// gradient-style local search — the greedy has an O(1/(Δ+1)) worst case
/// precisely because single runs can stall in local optima (e.g. a bond
/// parked on the wrong AP with no improving unilateral move).
///
/// With `restarts = 0` this runs the given start only, or one random start
/// at `spec.seed` when there is none. The fold keeps the last of equally
/// good random attempts, and a given start is replaced only on a strict
/// gain, so a converged deployment is never churned by a tie.
///
/// Attempts are independent, so they fan out through the order-stable
/// [`par::par_map_n`] and the fold runs in attempt order: the result is
/// bit-identical at any `ACORN_THREADS`. The sink is shared across the
/// fan-out (hence `S: Sync`) and receives only commutative counter adds:
/// per run `alloc.runs`, `alloc.rounds`, `alloc.iterations` and
/// `alloc.switches`, and one `alloc.restarts` per random attempt when
/// `restarts > 0`.
pub fn allocate<M: ThroughputModel + Sync, S: Sink + Sync>(
    model: &M,
    plan: &ChannelPlan,
    config: &AllocationConfig,
    spec: &AllocSpec<'_>,
    sink: &S,
) -> AllocationResult {
    let n = model.n_aps();
    if let Some(initial) = spec.initial {
        assert_eq!(initial.len(), n, "one initial assignment per AP");
        for a in initial {
            assert!(plan.contains(*a), "initial assignment {a:?} outside plan");
        }
    }
    // Attempt 0 is the given start and attempts 1..=restarts are random;
    // without a given start, attempt 1 always runs.
    let ks = match spec.initial {
        Some(_) => 0..spec.restarts + 1,
        None => 1..spec.restarts.max(1) + 1,
    };
    let attempts = par::par_map_n(ks.len(), |i| {
        let k = ks.start + i;
        let start = match spec.initial {
            Some(initial) if k == 0 => initial.to_vec(),
            _ => {
                if spec.restarts > 0 && sink.enabled() {
                    sink.inc(names::ALLOC_RESTARTS);
                }
                let offset = spec.component * spec.restarts + k - 1;
                random_initial(plan, n, spec.seed.wrapping_add(offset as u64))
            }
        };
        greedy(model, plan, start, config, sink)
    });
    best_attempt(attempts, spec.initial.is_some())
}

/// The hedge's fold over attempts in attempt order: among random attempts
/// a later one wins exact ties, while the given start (attempt 0, when
/// `has_start`) keeps them. Allocation totals are finite by construction,
/// so plain comparisons are NaN-free.
fn best_attempt(mut attempts: Vec<AllocationResult>, has_start: bool) -> AllocationResult {
    let mut best = 0;
    for (k, attempt) in attempts.iter().enumerate().skip(1) {
        let (y, y_best) = (attempt.total_bps, attempts[best].total_bps);
        if y > y_best || (y == y_best && !(has_start && best == 0)) {
            best = k;
        }
    }
    attempts.swap_remove(best)
}

/// One greedy run of Algorithm 2 from `assignments`, reporting its
/// `alloc.*` counters as commutative adds.
fn greedy<M: ThroughputModel + Sync, S: Sink>(
    model: &M,
    plan: &ChannelPlan,
    mut assignments: Vec<ChannelAssignment>,
    config: &AllocationConfig,
    sink: &S,
) -> AllocationResult {
    let n = model.n_aps();
    let colours = plan.all_assignments();
    let mut y = model.total_bps(&assignments);
    let mut iterations = 0usize;
    let mut switches = 0usize;
    let mut rounds = 0usize;
    let mut history = vec![y];

    for _round in 0..config.max_rounds {
        rounds += 1;
        let y_round_start = y;
        let mut eligible: Vec<bool> = vec![true; n];
        // Inner loop: repeatedly let the max-rank eligible AP switch.
        loop {
            let candidates: Vec<usize> = (0..n).filter(|&i| eligible[i]).collect();
            if candidates.is_empty() {
                break;
            }
            iterations += candidates.len();
            // Rank every eligible AP: the gain of its best colour with
            // everyone else frozen (line 10). Each AP's scan is
            // independent given the frozen assignment, so the scans fan
            // out; the fold below runs in candidate order, keeping the
            // winner identical to the sequential pass.
            let ranked: Vec<(ChannelAssignment, f64)> = par::par_map(&candidates, |&i| {
                model.best_switch(ApId(i), &colours, &assignments)
            });
            let mut best: Option<(usize, ChannelAssignment, f64)> = None;
            for (&i, &(c, rank)) in candidates.iter().zip(&ranked) {
                match best {
                    Some((_, _, r)) if r >= rank => {}
                    _ => best = Some((i, c, rank)),
                }
            }
            match best {
                // "winner" switches if it improves the objective.
                Some((winner, c_star, rank)) if rank > 0.0 => {
                    if assignments[winner] != c_star {
                        switches += 1;
                    }
                    assignments[winner] = c_star;
                    eligible[winner] = false;
                    y += rank;
                    history.push(y);
                }
                _ => break, // no eligible AP can improve
            }
        }
        // ε stopping rule across rounds.
        if y <= config.epsilon * y_round_start {
            break;
        }
    }

    if sink.enabled() {
        sink.inc(names::ALLOC_RUNS);
        sink.add(names::ALLOC_ROUNDS, rounds as u64);
        sink.add(names::ALLOC_ITERATIONS, iterations as u64);
        sink.add(names::ALLOC_SWITCHES, switches as u64);
    }

    // Re-anchor the headline number with one full evaluation so that
    // accumulated delta rounding cannot drift it; `history_bps` keeps the
    // exact per-switch gains.
    let total_bps = model.total_bps(&assignments);
    AllocationResult {
        total_bps,
        assignments,
        iterations,
        switches,
        history_bps: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClientSnr, NetworkModel};
    use acorn_obs::{NullSink, RecordingSink};
    use acorn_topology::{Channel20, InterferenceGraph};

    fn model(snrs_per_ap: &[&[f64]], graph: InterferenceGraph) -> NetworkModel {
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

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    /// The greedy from `initial` alone.
    fn from(initial: &[ChannelAssignment]) -> AllocSpec<'_> {
        AllocSpec {
            initial: Some(initial),
            ..AllocSpec::default()
        }
    }

    /// Random starts only.
    fn hedge(restarts: usize, seed: u64) -> AllocSpec<'static> {
        AllocSpec {
            restarts,
            seed,
            ..AllocSpec::default()
        }
    }

    fn run(m: &NetworkModel, plan: &ChannelPlan, spec: &AllocSpec<'_>) -> AllocationResult {
        allocate(m, plan, &AllocationConfig::default(), spec, &NullSink)
    }

    #[test]
    fn never_decreases_throughput() {
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        for seed in 0..10 {
            let initial = random_initial(&plan, 3, seed);
            let y0 = m.total_bps(&initial);
            let r = run(&m, &plan, &from(&initial));
            assert!(r.total_bps + 1e-6 >= y0, "seed {seed}");
            // History is monotone.
            for w in r.history_bps.windows(2) {
                assert!(w[1] + 1e-6 >= w[0]);
            }
        }
    }

    #[test]
    fn isolated_good_cell_gets_bonded() {
        // One AP, strong clients, plenty of channels → it should end up on
        // a 40 MHz channel.
        let m = model(&[&[30.0, 28.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::full_5ghz();
        let r = run(&m, &plan, &from(&[single(0)]));
        assert_eq!(
            r.assignments[0].width(),
            acorn_phy::ChannelWidth::Ht40,
            "{:?}",
            r.assignments
        );
    }

    #[test]
    fn isolated_poor_cell_stays_at_20mhz() {
        let m = model(&[&[2.0, 1.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::full_5ghz();
        let bonded0 = ChannelAssignment::bonded(Channel20(0)).unwrap();
        let r = run(&m, &plan, &from(&[bonded0]));
        assert_eq!(r.assignments[0].width(), acorn_phy::ChannelWidth::Ht20);
    }

    #[test]
    fn contending_aps_spread_across_channels() {
        // Two mutually interfering strong cells with 4 channels: the
        // optimum is two disjoint bonds; at minimum they must not overlap.
        let m = model(&[&[30.0], &[30.0]], InterferenceGraph::complete(2));
        let plan = ChannelPlan::restricted(4);
        let r = run(&m, &plan, &from(&[single(0), single(0)]));
        assert!(
            !r.assignments[0].conflicts(r.assignments[1]),
            "{:?}",
            r.assignments
        );
    }

    #[test]
    fn fig11_shape_three_aps_four_channels() {
        // Fig. 11: AP 1 good client, APs 2–3 poor clients, 4 channels —
        // only one AP can bond without overlap, and it should be the good
        // one: widths (40, 20, 20). Single greedy runs can park the bond
        // on a poor AP (a true local optimum: no unilateral move escapes),
        // so run with restarts, as the evaluation harness does.
        let m = model(&[&[28.0], &[0.0], &[0.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(4);
        let r = run(&m, &plan, &hedge(8, 7));
        use acorn_phy::ChannelWidth::*;
        let widths: Vec<_> = r.assignments.iter().map(|a| a.width()).collect();
        assert_eq!(widths, vec![Ht40, Ht20, Ht20], "{:?}", r.assignments);
        // And nobody overlaps anybody.
        for i in 0..3 {
            for j in i + 1..3 {
                assert!(!r.assignments[i].conflicts(r.assignments[j]));
            }
        }
    }

    #[test]
    fn epsilon_one_runs_to_a_local_optimum() {
        // ε = 1.0 keeps iterating while *any* improvement exists, so the
        // result must be single-switch stable.
        let m = model(&[&[30.0], &[12.0], &[4.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(6);
        let cfg = AllocationConfig {
            epsilon: 1.0,
            max_rounds: 64,
        };
        let r = allocate(&m, &plan, &cfg, &hedge(0, 3), &NullSink);
        // No single AP can improve the total by moving.
        for i in 0..3 {
            let mut alt = r.assignments.clone();
            for c in plan.all_assignments() {
                alt[i] = c;
                assert!(
                    m.total_bps(&alt) <= r.total_bps + 1e-6,
                    "AP {i} could still improve via {c:?}"
                );
            }
            alt[i] = r.assignments[i];
        }
    }

    #[test]
    fn random_initial_is_reproducible_and_legal() {
        let plan = ChannelPlan::restricted(4);
        let a = random_initial(&plan, 10, 99);
        let b = random_initial(&plan, 10, 99);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| plan.contains(*x)));
    }

    #[test]
    #[should_panic(expected = "outside plan")]
    fn illegal_initial_panics() {
        let m = model(&[&[20.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::restricted(2);
        run(&m, &plan, &from(&[single(7)]));
    }

    #[test]
    fn zero_restarts_run_the_given_start_or_one_random_start_at_the_seed() {
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let initial = random_initial(&plan, 3, 5);
        for component in [0, 3] {
            // A given start: exactly one greedy run from it, no restart.
            let sink = RecordingSink::new();
            let spec = AllocSpec {
                initial: Some(&initial),
                seed: 41,
                component,
                ..AllocSpec::default()
            };
            let r = allocate(&m, &plan, &cfg, &spec, &sink);
            assert_eq!(r, greedy(&m, &plan, initial.clone(), &cfg, &NullSink));
            sink.with_telemetry(|t| {
                assert_eq!(t.counter(names::ALLOC_RUNS), 1);
                assert_eq!(t.counter(names::ALLOC_RESTARTS), 0);
            });
            // No start: one random start drawn at the seed itself, which
            // counts as a run but not as a restart.
            let sink = RecordingSink::new();
            let spec = AllocSpec {
                initial: None,
                ..spec
            };
            let r = allocate(&m, &plan, &cfg, &spec, &sink);
            let expect = greedy(&m, &plan, random_initial(&plan, 3, 41), &cfg, &NullSink);
            assert_eq!(r, expect);
            sink.with_telemetry(|t| {
                assert_eq!(t.counter(names::ALLOC_RUNS), 1);
                assert_eq!(t.counter(names::ALLOC_RESTARTS), 0);
            });
        }
    }

    #[test]
    fn obs_counters_match_the_result_and_the_plain_path() {
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let sink = RecordingSink::new();
        let r_obs = allocate(&m, &plan, &cfg, &hedge(4, 11), &sink);
        let r_plain = allocate(&m, &plan, &cfg, &hedge(4, 11), &NullSink);
        assert_eq!(r_obs, r_plain, "instrumentation must not change results");
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(names::ALLOC_RESTARTS), 4);
            assert_eq!(t.counter(names::ALLOC_RUNS), 4);
            assert!(t.counter(names::ALLOC_ROUNDS) >= 4);
            assert!(t.counter(names::ALLOC_ITERATIONS) >= t.counter(names::ALLOC_SWITCHES));
        });
    }

    #[test]
    fn ties_keep_the_given_start_and_the_last_random_attempt() {
        let result = |total_bps: f64, switches: usize| AllocationResult {
            assignments: Vec::new(),
            total_bps,
            iterations: 0,
            switches,
            history_bps: Vec::new(),
        };
        let attempts = || vec![result(1.0, 0), result(1.0, 1), result(1.0, 2)];
        assert_eq!(best_attempt(attempts(), true).switches, 0);
        assert_eq!(best_attempt(attempts(), false).switches, 2);
        let gain = vec![
            result(1.0, 0),
            result(2.0, 1),
            result(2.0, 2),
            result(1.5, 3),
        ];
        assert_eq!(best_attempt(gain, true).switches, 2);
    }

    #[test]
    fn iteration_counter_grows_with_network_size() {
        let plan = ChannelPlan::restricted(4);
        let small = model(&[&[20.0]], InterferenceGraph::new(1));
        let large = model(
            &[&[20.0], &[18.0], &[16.0], &[14.0]],
            InterferenceGraph::complete(4),
        );
        let rs = run(&small, &plan, &hedge(0, 1));
        let rl = run(&large, &plan, &hedge(0, 1));
        assert!(rl.iterations > rs.iterations);
    }
}
