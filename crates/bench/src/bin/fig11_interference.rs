//! Figure 11 — dense deployment: 3 contending APs, four 20 MHz channels.
//!
//! Paper: AP 1 serves a good client; APs 2 and 3 have poor clients. "With
//! 4 channels, only one AP can use CB to achieve complete isolation. ...
//! ACORN identifies this AP and provides the highest throughput ... an
//! almost 2x improvement over the scheme that aggressively allows CB
//! operations at every AP."
//!
//! We enumerate the paper's four width combinations (40,40,40 /
//! 40,20,20 / 20,40,20 / 20,20,40), score each with the least-overlap
//! channel choice for its widths, then run ACORN's allocator and confirm
//! it lands on the best one.

use acorn_bench::{header, mbps, print_table, save_json};
use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::controller::{AcornConfig, AcornController};
use acorn_core::model::ThroughputModel;
use acorn_core::NullSink;
use acorn_phy::ChannelWidth;
use acorn_sim::runner::evaluate_analytic;
use acorn_sim::scenario::fig11;
use acorn_sim::traffic::Traffic;
use acorn_topology::{ApId, Channel20, ChannelAssignment, ChannelPlan};
use serde::Serialize;

#[derive(Serialize)]
struct Combo {
    widths: String,
    total_bps: f64,
}

#[derive(Serialize)]
struct Fig11 {
    combos: Vec<Combo>,
    acorn_total_bps: f64,
    acorn_widths: String,
    gain_over_all40: f64,
}

fn single(c: u8) -> ChannelAssignment {
    ChannelAssignment::Single(Channel20(c))
}

fn bonded(c: u8) -> ChannelAssignment {
    ChannelAssignment::bonded(Channel20(c)).unwrap()
}

fn main() {
    header("Figure 11: 3 contending APs, 4 channels");
    let wlan = fig11();
    let ctl = AcornController::new(AcornConfig {
        plan: ChannelPlan::restricted(4),
        ..AcornConfig::default()
    });
    // Fig. 11 measures Algorithm 2 under the paper's fixed association:
    // client i with AP i.
    let mut state = ctl.new_state(&wlan, 1);
    state.assoc = vec![Some(ApId(0)), Some(ApId(1)), Some(ApId(2))];

    // The paper's four width combinations, with least-overlap channels.
    let combos: [(&str, Vec<ChannelAssignment>); 4] = [
        ("40,40,40", vec![bonded(0), bonded(2), bonded(0)]),
        ("40,20,20", vec![bonded(0), single(2), single(3)]),
        ("20,40,20", vec![single(2), bonded(0), single(3)]),
        ("20,20,40", vec![single(2), single(3), bonded(0)]),
    ];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (label, assignments) in &combos {
        let e = evaluate_analytic(
            &wlan,
            assignments,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            Traffic::Udp,
        );
        rows.push(vec![label.to_string(), mbps(e.total_bps)]);
        out.push(Combo {
            widths: label.to_string(),
            total_bps: e.total_bps,
        });
    }
    print_table(&["widths (AP1,AP2,AP3)", "total (Mb/s)"], &rows);

    // ACORN's own allocation.
    let model = ctl.build_model(&wlan, &state);
    let r = allocate(
        &model,
        &ctl.config.plan,
        &AllocationConfig::default(),
        &AllocSpec {
            restarts: 8,
            seed: 5,
            ..AllocSpec::default()
        },
        &NullSink,
    );
    let acorn_widths: Vec<&str> = r
        .assignments
        .iter()
        .map(|a| match a.width() {
            ChannelWidth::Ht40 => "40",
            ChannelWidth::Ht20 => "20",
        })
        .collect();
    let acorn_eval = evaluate_analytic(
        &wlan,
        &r.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    // Consistency: the allocator's internal objective and the evaluator
    // agree (same model).
    assert!((model.total_bps(&r.assignments) - acorn_eval.total_bps).abs() < 1.0);

    println!();
    println!(
        "ACORN allocation: widths ({}) → {} Mb/s",
        acorn_widths.join(","),
        mbps(acorn_eval.total_bps)
    );
    let all40 = out[0].total_bps;
    let best = out.iter().map(|c| c.total_bps).fold(0.0f64, f64::max);
    println!(
        "gain over aggressive all-40: {:.2}x (paper: ~2x); best combo: {}",
        acorn_eval.total_bps / all40,
        mbps(best)
    );
    assert!(
        acorn_eval.total_bps + 1.0 >= best,
        "ACORN must find the best combo"
    );

    save_json(
        "fig11_interference",
        &Fig11 {
            combos: out,
            acorn_total_bps: acorn_eval.total_bps,
            acorn_widths: acorn_widths.join(","),
            gain_over_all40: acorn_eval.total_bps / all40,
        },
    );
}
