//! Figure 10 — per-AP throughput, ACORN vs "\[17\]", on the paper's two
//! interference-free topologies.
//!
//! Paper results to reproduce in shape:
//! * Topology 1 (2 APs, one with poor clients): ACORN's 20 MHz choice for
//!   the poor cell gives ~4× over \[17\]'s aggressive 40 MHz ("the poor
//!   clients are hardly able to communicate with the AP when it uses CB").
//! * Topology 2 (5 APs): 6× (AP 4-analog) and 1.5×+ (AP 5-analog) gains
//!   on the poor cells, and like-quality grouping between the two
//!   co-located APs.

use acorn_baselines::kauffmann::allocate_aggressive_cb;
use acorn_bench::{header, mbps, print_table, save_json};
use acorn_core::{choose_ap_selfish, NullSink};
use acorn_core::{AcornConfig, AcornController};
use acorn_sim::runner::evaluate_analytic;
use acorn_sim::scenario::{topology1, topology2};
use acorn_sim::traffic::Traffic;
use acorn_topology::{ChannelPlan, ClientId, Wlan};
use serde::Serialize;

#[derive(Serialize)]
struct TopologyResult {
    name: String,
    acorn_per_ap_bps: Vec<f64>,
    baseline_per_ap_bps: Vec<f64>,
    acorn_total_bps: f64,
    baseline_total_bps: f64,
    acorn_widths: Vec<String>,
    per_ap_gain: Vec<f64>,
}

fn run_acorn(wlan: &Wlan, plan: ChannelPlan) -> (Vec<f64>, f64, Vec<String>) {
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });
    let mut state = ctl.new_state(wlan, 7);
    for c in 0..wlan.clients.len() {
        ctl.associate(wlan, &mut state, ClientId(c), &NullSink);
    }
    let model = ctl.build_model(wlan, &state);
    ctl.reallocate(&model, &mut state, 8, 11, false, &NullSink);
    // Association can now be revisited under the final channels (the paper
    // interleaves the two modules); one more pass settles it.
    for c in 0..wlan.clients.len() {
        ctl.deassociate(&mut state, ClientId(c));
        ctl.associate(wlan, &mut state, ClientId(c), &NullSink);
    }
    let model = ctl.build_model(wlan, &state);
    ctl.reallocate(&model, &mut state, 8, 13, false, &NullSink);
    let eval = evaluate_analytic(
        wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    let widths = state
        .assignments
        .iter()
        .map(|a| format!("{:?}", a.width()))
        .collect();
    (eval.per_ap_bps, eval.total_bps, widths)
}

fn run_kauffmann(wlan: &Wlan, plan: ChannelPlan) -> (Vec<f64>, f64) {
    // Aggressive all-40 allocation, selfish association (probing via the
    // same beacon machinery ACORN uses, different choice rule).
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });
    let mut state = ctl.new_state(wlan, 7);
    state.assignments = allocate_aggressive_cb(wlan, &wlan.ap_only_interference_graph(), &plan, 8);
    state.operating_width = state.assignments.iter().map(|a| a.width()).collect();
    for c in 0..wlan.clients.len() {
        let cands = ctl.candidates_for(wlan, &state, ClientId(c));
        if let Some(ix) = choose_ap_selfish(&cands, &NullSink) {
            state.assoc[c] = Some(cands[ix].ap);
        }
    }
    // Re-run the scan with the association-aware graph.
    let graph = wlan.interference_graph(&state.assoc);
    state.assignments = allocate_aggressive_cb(wlan, &graph, &plan, 8);
    let eval = evaluate_analytic(
        wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    (eval.per_ap_bps, eval.total_bps)
}

fn compute(name: &str, wlan: &Wlan, plan: ChannelPlan) -> TopologyResult {
    let (acorn, acorn_total, widths) = run_acorn(wlan, plan);
    let (base, base_total) = run_kauffmann(wlan, plan);
    let mut gains = Vec::new();
    for i in 0..wlan.aps.len() {
        let gain = if base[i] > 0.0 {
            acorn[i] / base[i]
        } else {
            f64::INFINITY
        };
        gains.push(gain);
    }
    TopologyResult {
        name: name.to_string(),
        acorn_per_ap_bps: acorn,
        baseline_per_ap_bps: base,
        acorn_total_bps: acorn_total,
        baseline_total_bps: base_total,
        acorn_widths: widths,
        per_ap_gain: gains,
    }
}

fn show(r: &TopologyResult) {
    header(&format!("Figure 10 — {}", r.name));
    let mut rows = Vec::new();
    for i in 0..r.acorn_per_ap_bps.len() {
        rows.push(vec![
            format!("AP {i}"),
            mbps(r.acorn_per_ap_bps[i]),
            r.acorn_widths[i].clone(),
            mbps(r.baseline_per_ap_bps[i]),
            format!("{:.2}x", r.per_ap_gain[i]),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        mbps(r.acorn_total_bps),
        "".into(),
        mbps(r.baseline_total_bps),
        format!("{:.2}x", r.acorn_total_bps / r.baseline_total_bps),
    ]);
    print_table(
        &["cell", "ACORN (Mb/s)", "width", "[17] (Mb/s)", "gain"],
        &rows,
    );
}

fn main() {
    let plan = ChannelPlan::full_5ghz();
    // The two topologies are independent end-to-end runs; compute both in
    // parallel, then print in order.
    let topologies: Vec<(&str, Wlan)> = vec![
        ("Topology 1 (2 APs, poor cell + good cell)", topology1()),
        (
            "Topology 2 (5 APs, shared clients + poor cells)",
            topology2(),
        ),
    ];
    let results = acorn_core::par::par_map(&topologies, |(name, wlan)| compute(name, wlan, plan));
    for r in &results {
        show(r);
    }
    let mut it = results.into_iter();
    let (t1, t2) = (
        it.next().expect("topology 1"),
        it.next().expect("topology 2"),
    );
    println!();
    println!("paper: gains of ~4x on Topology 1's poor cell; up to 6x on");
    println!("Topology 2's poorest cell; good cells essentially unchanged.");
    save_json("fig10_topologies", &vec![t1, t2]);
}
