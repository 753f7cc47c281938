//! Release gates for the dynamic-channel-bonding stack (per-transmission
//! bonding, its CTMC cross-check and the exact optimal allocator):
//!
//! 1. **CTMC cross-check** — the event-driven DCB simulator must land
//!    within `CTMC_TOLERANCE` of the exactly solved stationary chain on
//!    every overlapping-BSS cross-check topology, for every Markovian
//!    policy family. The chain is an independent closed-form model
//!    (Faridi et al., arXiv:1509.00290), so agreement here validates the
//!    simulator's carrier-sensing, censoring, and width dynamics the way
//!    PR 2's calibration module validated the baseband.
//! 2. **Greedy-vs-exact approximation gap** — the branch-and-bound
//!    optimum (Kai et al., arXiv:1703.03909 role) must terminate on the
//!    enumerable gap topologies, never lose to the paper's greedy, and
//!    the measured gap must stay above a documented floor. The same
//!    numbers are recorded in `BENCH_dcb.json` by `bench_dcb`.
//!
//! `scripts/ci.sh` runs this file as a `--release` gate alongside
//! `table_accuracy` and `spatial_graph`.

use acorn::core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn::core::model::ThroughputModel;
use acorn::core::theory::y_star_bps;
use acorn::core::NullSink;
use acorn::dcb::{allocate_exact, ctmc, CtmcParams, ExactConfig, MarkovPolicy, PolicyKind};
use acorn::events::{DcbScenario, OverlappingBssGrid};
use acorn::topology::{Channel20, ChannelAssignment, InterferenceGraph};

/// Documented simulator-vs-CTMC tolerance: per-WLAN relative error on a
/// 60 000 s horizon. The sampling error of a regenerative mean over that
/// horizon sits near 1–2%; 5% gives three-sigma headroom while still
/// catching any systematic modelling drift (a wrong service rate or a
/// missed censoring path shows up as 10%+).
const CTMC_TOLERANCE: f64 = 0.05;

/// Documented floor for the measured greedy/exact ratio on the gap
/// topologies (the paper's greedy is near-optimal at this scale; the
/// worst case O(1/(Δ+1)) is far below it).
const GAP_FLOOR: f64 = 0.90;

fn bonded(c: u8) -> ChannelAssignment {
    match ChannelAssignment::bonded(Channel20(c)) {
        Some(b) => b,
        None => unreachable!("even lower channel"),
    }
}

fn single(c: u8) -> ChannelAssignment {
    ChannelAssignment::Single(Channel20(c))
}

/// The overlapping-BSS cross-check topologies: small enough to solve
/// exactly, dense enough that bonding decisions interact.
fn crosscheck_topologies() -> Vec<(&'static str, InterferenceGraph, Vec<ChannelAssignment>)> {
    vec![
        (
            "k2-bond-overlap",
            InterferenceGraph::complete(2),
            vec![bonded(0), single(1)],
        ),
        (
            "chain3-shared-bond",
            InterferenceGraph::from_edges(3, &[(0, 1), (1, 2)]),
            vec![bonded(0), single(1), bonded(0)],
        ),
        (
            "k4-two-bond-pairs",
            InterferenceGraph::complete(4),
            vec![bonded(0), single(1), bonded(2), single(3)],
        ),
    ]
}

fn markov_policies() -> Vec<(PolicyKind, MarkovPolicy)> {
    vec![
        (PolicyKind::StaticPrimary, MarkovPolicy::StaticPrimary),
        (PolicyKind::AlwaysMax, MarkovPolicy::AlwaysMax),
        (
            PolicyKind::Probabilistic(0.5),
            MarkovPolicy::Probabilistic(0.5),
        ),
    ]
}

#[test]
fn simulator_matches_ctmc_on_every_crosscheck_topology() {
    let params = CtmcParams::default();
    for (name, graph, alloc) in crosscheck_topologies() {
        for (kind, markov) in markov_policies() {
            let exact = match ctmc::solve(&graph, &alloc, markov, &params) {
                Ok(s) => s,
                Err(e) => unreachable!("{name}: CTMC must solve: {e}"),
            };
            let mut scenario = DcbScenario::new(graph.clone(), alloc.clone(), kind, 0xDCB0);
            scenario.params = params;
            scenario.horizon_s = 60_000.0;
            let sim = scenario.run();
            for i in 0..graph.len() {
                let want = exact.per_wlan_bps[i];
                let got = sim.per_ap_bps[i];
                let rel = (got - want).abs() / want;
                assert!(
                    rel <= CTMC_TOLERANCE,
                    "{name}/{kind:?} wlan {i}: sim {got:.0} vs ctmc {want:.0} \
                     (rel {rel:.4} > {CTMC_TOLERANCE})"
                );
            }
        }
    }
}

/// The simulator also reproduces the chain's *width usage*, not just its
/// throughput: the stationary 40 MHz time fraction must match.
#[test]
fn simulator_matches_ctmc_width_usage() {
    let params = CtmcParams::default();
    let (_, graph, alloc) = crosscheck_topologies().remove(0);
    let exact = match ctmc::solve(&graph, &alloc, MarkovPolicy::AlwaysMax, &params) {
        Ok(s) => s,
        Err(e) => unreachable!("CTMC must solve: {e}"),
    };
    let mut scenario = DcbScenario::new(graph, alloc, PolicyKind::AlwaysMax, 0xDCB1);
    scenario.horizon_s = 60_000.0;
    let sim = scenario.run();
    let want = exact.tx40_time_fraction[0];
    let got = sim.tx40_time_fraction[0];
    assert!(
        (got - want).abs() <= CTMC_TOLERANCE * want.max(0.05),
        "tx40 fraction: sim {got:.4} vs ctmc {want:.4}"
    );
}

/// The gap topologies: enumerable deployments where the exact search
/// terminates. Matches `bench_dcb`'s table.
fn gap_grids() -> Vec<(&'static str, OverlappingBssGrid)> {
    vec![
        (
            "grid2x2-4ch",
            OverlappingBssGrid {
                nx: 2,
                ny: 2,
                clients_per_ap: 3,
                n_channels: 4,
                seed: 101,
            },
        ),
        (
            "grid2x3-4ch",
            OverlappingBssGrid {
                nx: 2,
                ny: 3,
                clients_per_ap: 2,
                n_channels: 4,
                seed: 202,
            },
        ),
        (
            "grid3x2-2ch",
            OverlappingBssGrid {
                nx: 3,
                ny: 2,
                clients_per_ap: 2,
                n_channels: 2,
                seed: 303,
            },
        ),
    ]
}

#[test]
fn exact_search_terminates_and_bounds_the_greedy() {
    for (name, grid) in gap_grids() {
        let model = grid.model();
        let plan = grid.plan();
        let exact = allocate_exact(&model, &plan, &ExactConfig::default());
        assert!(exact.complete, "{name}: exact search must terminate");
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
        let greedy_bps = model.total_bps(&greedy.assignments);
        assert!(
            exact.total_bps >= greedy_bps - 1e-6,
            "{name}: optimum {} below greedy {}",
            exact.total_bps,
            greedy_bps
        );
        assert!(
            exact.total_bps <= y_star_bps(&model) + 1e-6,
            "{name}: optimum above the interference-free ceiling"
        );
        let gap = acorn::dcb::greedy_vs_exact_gap(greedy_bps, exact.total_bps);
        assert!(
            gap >= GAP_FLOOR,
            "{name}: measured gap {gap:.4} under the documented floor {GAP_FLOOR}"
        );
        assert!(exact.assignments.iter().all(|&a| plan.contains(a)));
    }
}

/// Policy families are ordered the way the DCB papers predict on a dense
/// shared-spectrum grid: bonding at all beats never bonding, and the
/// occupancy-aware family stays within the envelope of the static
/// extremes rather than collapsing.
#[test]
fn policy_families_behave_on_the_dense_grid() {
    // 5 channels on a kings-move 3×3 at this seed: the epoch greedy
    // hands out 6 bonds AND leaves two neighbour pairs sharing a
    // primary — bonding decisions and carrier-sense blocking genuinely
    // coexist (the same grid bench_dcb reports on).
    let grid = OverlappingBssGrid {
        nx: 3,
        ny: 3,
        clients_per_ap: 2,
        n_channels: 5,
        seed: 11,
    };
    let run = |policy: PolicyKind| {
        let mut s = grid.scenario(policy, 4);
        s.horizon_s = 10_000.0;
        s.run()
    };
    let never = run(PolicyKind::StaticPrimary);
    let always = run(PolicyKind::AlwaysMax);
    let aware = run(PolicyKind::OccupancyAware(0.4));
    assert_eq!(never.completions40.iter().sum::<u64>(), 0);
    assert!(always.completions40.iter().sum::<u64>() > 0);
    assert!(
        never.blocked.iter().sum::<u64>() > 0,
        "the grid must have real carrier-sense contention"
    );
    assert!(
        always.total_bps() > never.total_bps(),
        "on λ/μ-symmetric traffic, extra width must not hurt aggregate"
    );
    assert!(aware.total_bps() >= never.total_bps());
}
