//! Quickstart: auto-configure a small enterprise WLAN with ACORN.
//!
//! Builds a 2×2 AP grid with 8 clients, runs Algorithm 1 (association)
//! for each arriving client, then Algorithm 2 (channel-bonding-aware
//! allocation), and prints the resulting configuration and per-cell
//! throughputs. A [`RecordingSink`] rides along, so the run also shows
//! what the observability layer sees — and saves the full snapshot under
//! `results/`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use acorn::core::{AcornConfig, AcornController};
use acorn::obs::{RecordingSink, Sink};
use acorn::phy::{GoodputTable, LinkQualityEstimator};
use acorn::sim::runner::evaluate_analytic;
use acorn::sim::Traffic;
use acorn::topology::{ApId, ClientId};
use std::sync::Arc;

fn main() {
    // A 2×2 floor, 55 m AP spacing, 8 clients scattered with shadowing.
    let wlan = acorn::sim::enterprise_grid(2, 2, 55.0, 8, 42);
    // The controller runs its SNR→PER→goodput evaluations through the
    // memoized table (the city-scale fast path); drop `with_table` for
    // the exact per-call union-bound evaluation.
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    let ctl = AcornController::with_table(AcornConfig::default(), table);

    // Every decision below reports into this sink; pass `NullSink`
    // instead to run with observability off.
    let sink = RecordingSink::new();

    // Clients arrive one by one and associate per Algorithm 1.
    let mut state = ctl.new_state(&wlan, 42);
    for c in 0..wlan.clients.len() {
        match ctl.associate(&wlan, &mut state, ClientId(c), &sink) {
            Some(ap) => println!("client {c} -> AP {}", ap.0),
            None => println!("client {c} is out of range"),
        }
    }

    // Channel allocation per Algorithm 2 (with random restarts), run per
    // connected component of the conflict graph — the snapshot below
    // reports the component count (`alloc.shards`) and the table's
    // hit/miss counters (`phy.table.*`) alongside the association metrics.
    let model = ctl.build_model(&wlan, &state);
    let result = ctl.reallocate(&model, &mut state, 8, 7, true, &sink);
    println!();
    println!(
        "allocation converged after {} iterations, {} switches",
        result.iterations, result.switches
    );
    for (i, a) in state.assignments.iter().enumerate() {
        println!(
            "AP {i}: {:?} ({:?}), serving {} clients",
            a,
            a.width(),
            state.cell_clients(ApId(i)).len()
        );
    }

    // Score the final configuration.
    let eval = evaluate_analytic(
        &wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    println!();
    for (i, bps) in eval.per_ap_bps.iter().enumerate() {
        println!("AP {i}: {:.1} Mb/s", bps / 1e6);
    }
    println!("network total: {:.1} Mb/s", eval.total_bps / 1e6);

    // What the observability layer recorded: every counter the decision
    // paths emitted, in deterministic (lexicographic) order.
    sink.gauge("quickstart.total_bps", eval.total_bps);
    let snap = sink.snapshot();
    println!();
    println!("observability counters:");
    for c in &snap.counters {
        println!("  {:<28} {}", c.name, c.value);
    }
    println!("observability gauges:");
    for g in &snap.gauges {
        println!("  {:<28} {:.3}", g.name, g.value);
    }
    let path = std::path::Path::new("results").join("quickstart_observability.json");
    match snap.save(&path) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
