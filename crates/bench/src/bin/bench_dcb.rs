//! Dynamic-channel-bonding snapshot, written to `BENCH_dcb.json` in the
//! current directory (run it from the repo root):
//!
//! * **Approximation gap** — ACORN's greedy (Algorithm 2, with
//!   restarts) vs the certified branch-and-bound optimum on enumerable
//!   overlapping-BSS grids: totals, the greedy/exact ratio, and the
//!   nodes the exact search needed.
//! * **CTMC cross-check** — the event-driven DCB simulator vs the
//!   exactly solved Faridi-style stationary chain on every cross-check
//!   topology × Markovian policy, with the max per-WLAN relative error
//!   against the documented tolerance (the same numbers `tests/dcb.rs`
//!   gates in CI).
//! * **Policy families** — aggregate throughput of static-primary /
//!   probabilistic / always-max / occupancy-aware on the dense 3×3
//!   kings-move grid where bonds and contention coexist.

use acorn_bench::header;
use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::model::ThroughputModel;
use acorn_core::NullSink;
use acorn_dcb::{
    allocate_exact, ctmc, greedy_vs_exact_gap, CtmcParams, ExactConfig, MarkovPolicy, PolicyKind,
};
use acorn_events::{DcbScenario, OverlappingBssGrid};
use acorn_topology::{Channel20, ChannelAssignment, InterferenceGraph};
use serde::Serialize;

/// Same documented tolerance `tests/dcb.rs` gates on.
const CTMC_TOLERANCE: f64 = 0.05;
const CROSSCHECK_HORIZON_S: f64 = 60_000.0;

#[derive(Serialize)]
struct GapRow {
    topology: String,
    n_aps: usize,
    n_channels: u8,
    greedy_bps: f64,
    exact_bps: f64,
    /// greedy / exact, in (0, 1].
    gap: f64,
    nodes_explored: u64,
    complete: bool,
}

#[derive(Serialize)]
struct CtmcRow {
    topology: String,
    policy: String,
    n_states: usize,
    ctmc_total_bps: f64,
    sim_total_bps: f64,
    /// Max over WLANs of |sim − ctmc| / ctmc.
    max_rel_error: f64,
    within_tolerance: bool,
}

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    total_bps: f64,
    completions40: u64,
    blocked: u64,
}

#[derive(Serialize)]
struct BenchDcb {
    /// Documented simulator-vs-CTMC tolerance (see tests/dcb.rs).
    ctmc_tolerance: f64,
    crosscheck_horizon_s: f64,
    approximation_gap: Vec<GapRow>,
    ctmc_crosscheck: Vec<CtmcRow>,
    /// Dense 3×3 kings-move grid, 5 channels, 20 000 s horizon.
    policy_families: Vec<PolicyRow>,
}

fn bonded(c: u8) -> ChannelAssignment {
    match ChannelAssignment::bonded(Channel20(c)) {
        Some(b) => b,
        None => unreachable!("even lower channel"),
    }
}

fn crosscheck_topologies() -> Vec<(&'static str, InterferenceGraph, Vec<ChannelAssignment>)> {
    let single = |c: u8| ChannelAssignment::Single(Channel20(c));
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

fn bench_gap() -> Vec<GapRow> {
    header("Approximation gap: Algorithm 2 greedy vs branch-and-bound optimum");
    let mut rows = Vec::new();
    for (name, grid) in gap_grids() {
        let model = grid.model();
        let plan = grid.plan();
        let exact = allocate_exact(&model, &plan, &ExactConfig::default());
        let greedy = allocate(
            &model,
            &plan,
            &AllocationConfig::default(),
            &AllocSpec {
                restarts: 8,
                seed: 0xD0CB,
                ..AllocSpec::default()
            },
            &NullSink,
        );
        let greedy_bps = model.total_bps(&greedy.assignments);
        let gap = greedy_vs_exact_gap(greedy_bps, exact.total_bps);
        println!(
            "{name}: greedy {:.1} Mb/s vs exact {:.1} Mb/s -> gap {gap:.4} \
             ({} nodes, complete: {})",
            greedy_bps / 1e6,
            exact.total_bps / 1e6,
            exact.nodes_explored,
            exact.complete,
        );
        rows.push(GapRow {
            topology: name.to_string(),
            n_aps: grid.nx * grid.ny,
            n_channels: grid.n_channels,
            greedy_bps,
            exact_bps: exact.total_bps,
            gap,
            nodes_explored: exact.nodes_explored,
            complete: exact.complete,
        });
    }
    rows
}

fn bench_ctmc() -> Vec<CtmcRow> {
    header("CTMC cross-check: event simulator vs exact stationary solution");
    let params = CtmcParams::default();
    let policies = [
        (
            "static-primary",
            PolicyKind::StaticPrimary,
            MarkovPolicy::StaticPrimary,
        ),
        ("always-max", PolicyKind::AlwaysMax, MarkovPolicy::AlwaysMax),
        (
            "probabilistic-0.5",
            PolicyKind::Probabilistic(0.5),
            MarkovPolicy::Probabilistic(0.5),
        ),
    ];
    let mut rows = Vec::new();
    for (name, graph, alloc) in crosscheck_topologies() {
        for (pname, kind, markov) in policies {
            let solution = match ctmc::solve(&graph, &alloc, markov, &params) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{name}/{pname}: CTMC solve failed: {e}");
                    continue;
                }
            };
            let mut scenario = DcbScenario::new(graph.clone(), alloc.clone(), kind, 0xDCB0);
            scenario.params = params;
            scenario.horizon_s = CROSSCHECK_HORIZON_S;
            let sim = scenario.run();
            let max_rel_error = solution
                .per_wlan_bps
                .iter()
                .zip(&sim.per_ap_bps)
                .map(|(&want, &got)| (got - want).abs() / want)
                .fold(0.0f64, f64::max);
            let within = max_rel_error <= CTMC_TOLERANCE;
            println!(
                "{name}/{pname}: ctmc {:.1} Mb/s ({} states) vs sim {:.1} Mb/s, \
                 max rel err {max_rel_error:.4} (tol {CTMC_TOLERANCE}): {}",
                solution.total_bps() / 1e6,
                solution.n_states,
                sim.total_bps() / 1e6,
                if within { "ok" } else { "EXCEEDED" },
            );
            rows.push(CtmcRow {
                topology: name.to_string(),
                policy: pname.to_string(),
                n_states: solution.n_states,
                ctmc_total_bps: solution.total_bps(),
                sim_total_bps: sim.total_bps(),
                max_rel_error,
                within_tolerance: within,
            });
        }
    }
    rows
}

fn bench_policies() -> Vec<PolicyRow> {
    header("Policy families on the dense 3x3 kings-move grid (5 channels)");
    // 5 channels at this seed: the epoch greedy hands out 6 bonds AND
    // leaves 2 neighbour pairs sharing a primary — bonding decisions and
    // carrier-sense blocking genuinely coexist.
    let grid = OverlappingBssGrid {
        nx: 3,
        ny: 3,
        clients_per_ap: 2,
        n_channels: 5,
        seed: 11,
    };
    let policies = [
        ("static-primary", PolicyKind::StaticPrimary),
        ("probabilistic-0.5", PolicyKind::Probabilistic(0.5)),
        ("occupancy-aware-0.4", PolicyKind::OccupancyAware(0.4)),
        ("always-max", PolicyKind::AlwaysMax),
    ];
    let mut rows = Vec::new();
    for (pname, kind) in policies {
        let r = grid.scenario(kind, 4).run();
        println!(
            "{pname}: {:.1} Mb/s aggregate, {} tx@40, {} blocked attempts",
            r.total_bps() / 1e6,
            r.completions40.iter().sum::<u64>(),
            r.blocked.iter().sum::<u64>(),
        );
        rows.push(PolicyRow {
            policy: pname.to_string(),
            total_bps: r.total_bps(),
            completions40: r.completions40.iter().sum(),
            blocked: r.blocked.iter().sum(),
        });
    }
    rows
}

fn main() {
    let record = BenchDcb {
        ctmc_tolerance: CTMC_TOLERANCE,
        crosscheck_horizon_s: CROSSCHECK_HORIZON_S,
        approximation_gap: bench_gap(),
        ctmc_crosscheck: bench_ctmc(),
        policy_families: bench_policies(),
    };
    match serde_json::to_string_pretty(&record) {
        Ok(s) => match std::fs::write("BENCH_dcb.json", s) {
            Ok(()) => println!("\n[saved BENCH_dcb.json]"),
            Err(e) => eprintln!("warning: could not write BENCH_dcb.json: {e}"),
        },
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
