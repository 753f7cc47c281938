//! Figure 14 — how close ACORN's channel allocation gets to the Y* upper
//! bound in practice, for 2/4/6 available channels over nine 3-AP sets
//! (Δ = 2).
//!
//! Paper: "With 2 channels, ACORN does not perform worse than what is
//! theoretically predicted; the aggregate network throughput is Y*/3 ...
//! In the case of 6 channels, ACORN can achieve Y* ... We observe some
//! cases where ACORN performs very close to the optimal ... even with
//! only 4 channels \[when\] there is at least one AP i such that
//! T20 > T40; ACORN ... configures the particular AP with a 20 MHz
//! channel, leaving 3 channels for utilization to the other two APs."

use acorn_bench::{header, mbps, print_table, save_json};
use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::model::{ClientSnr, NetworkModel};
use acorn_core::theory::{approximation_ratio, worst_case_bound_bps, y_star_bps};
use acorn_core::NullSink;
use acorn_topology::{ChannelPlan, InterferenceGraph};
use serde::Serialize;

#[derive(Serialize)]
struct ApproxPoint {
    set: usize,
    n_channels: u8,
    y_star_bps: f64,
    achieved_bps: f64,
    ratio: f64,
    worst_case_bound_bps: f64,
}

/// Nine AP-triples spanning the corpus's quality mix: each entry is the
/// three cells' client SNRs.
fn ap_sets() -> Vec<[Vec<f64>; 3]> {
    vec![
        [vec![30.0, 28.0], vec![26.0], vec![24.0]],
        [vec![30.0], vec![14.0], vec![1.6]],
        [vec![28.0, 27.0], vec![1.7, 1.6], vec![12.0]],
        [vec![32.0], vec![31.0], vec![30.0]],
        [vec![1.7], vec![1.65], vec![1.6]],
        [vec![22.0, 20.0], vec![18.0], vec![8.0, 6.0]],
        [vec![30.0], vec![1.6], vec![1.7, 14.0]],
        [vec![16.0], vec![12.0], vec![10.0]],
        [vec![28.0], vec![24.0, 4.0], vec![20.0]],
    ]
}

fn main() {
    header("Figure 14: approximation ratio of ACORN's allocation (Δ = 2)");
    let cfg = AllocationConfig {
        epsilon: 1.0, // run to a local optimum, as the evaluation does
        max_rounds: 64,
    };
    // Each AP set is an independent experiment keyed by its own seed
    // (100 + set index); fan the nine sets out and flatten in set order.
    let sets = ap_sets();
    let per_set: Vec<Vec<ApproxPoint>> = acorn_core::par::par_map_n(sets.len(), |si| {
        let set = &sets[si];
        let cells: Vec<Vec<ClientSnr>> = set
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
        let model = NetworkModel::new(InterferenceGraph::complete(3), cells);
        let ystar = y_star_bps(&model);
        let bound = worst_case_bound_bps(&model);
        [2u8, 4, 6]
            .into_iter()
            .map(|n_channels| {
                let plan = ChannelPlan::restricted(n_channels);
                let r = allocate(
                    &model,
                    &plan,
                    &cfg,
                    &AllocSpec {
                        restarts: 8,
                        seed: 100 + si as u64,
                        ..AllocSpec::default()
                    },
                    &NullSink,
                );
                let ratio = approximation_ratio(r.total_bps, ystar);
                assert!(
                    r.total_bps + 1.0 >= bound,
                    "set {si}, {n_channels} ch: below the worst-case bound"
                );
                ApproxPoint {
                    set: si,
                    n_channels,
                    y_star_bps: ystar,
                    achieved_bps: r.total_bps,
                    ratio,
                    worst_case_bound_bps: bound,
                }
            })
            .collect()
    });
    let points: Vec<ApproxPoint> = per_set.into_iter().flatten().collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.set),
                format!("{}", p.n_channels),
                mbps(p.y_star_bps),
                mbps(p.achieved_bps),
                format!("{:.3}", p.ratio),
            ]
        })
        .collect();
    print_table(&["set", "channels", "Y* (Mb/s)", "T (Mb/s)", "T/Y*"], &rows);

    // Summaries per channel count.
    println!();
    for n_channels in [2u8, 4, 6] {
        let rs: Vec<f64> = points
            .iter()
            .filter(|p| p.n_channels == n_channels)
            .map(|p| p.ratio)
            .collect();
        let min = rs.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = rs.iter().sum::<f64>() / rs.len() as f64;
        println!(
            "{n_channels} channels: T/Y* min {min:.3}, mean {mean:.3} (worst-case bound 1/(Δ+1) = 0.333)"
        );
    }
    let six_ok = points
        .iter()
        .filter(|p| p.n_channels == 6)
        .all(|p| p.ratio > 0.99);
    println!();
    println!(
        "6 channels reach Y* on every set: {} (paper: yes — full isolation)",
        if six_ok { "yes" } else { "NO" }
    );
    println!("paper: all points at or above the y = x/3 line; several 4-channel");
    println!("sets near Y* when one AP prefers 20 MHz.");

    save_json("fig14_approx", &points);
}
