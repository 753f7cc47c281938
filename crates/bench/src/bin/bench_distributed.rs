//! Distributed-control benchmark: the zone-controller plane on a
//! 144-AP / 16-district city, swept across control-wire loss rates,
//! written to `BENCH_distributed.json` at the repo root.
//!
//! Each level runs the full distributed plane (gossip, acks,
//! retransmits, catch-up replay) to quiescence and the centralized
//! golden twin over the same epoch schedule, recording the convergence
//! epoch (last epoch that changed any AP's assignment), the message cost
//! per AP, and whether the distributed plan landed bit-exactly on the
//! twin. Run time is perfbench's to measure (`perfbench -- --workload
//! ctrlplane`), so nothing here times itself.

use acorn_bench::header;
use acorn_core::{AcornConfig, AcornController};
use acorn_ctrlplane::{DistributedPlane, PlaneConfig, PlaneReport};
use acorn_events::FaultPlan;
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::city_grid;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct LossLevel {
    loss: f64,
    corruption: f64,
    matches_twin: bool,
    convergence_epoch: u64,
    msgs_per_ap: f64,
    frames_per_ap: f64,
    report: PlaneReport,
}

#[derive(Serialize)]
struct BenchDistributed {
    districts_per_side: usize,
    aps_per_district_side: usize,
    n_aps: usize,
    n_clients: usize,
    n_zones: usize,
    epochs: u64,
    levels: Vec<LossLevel>,
}

const DISTRICTS_PER_SIDE: usize = 4;
const APS_PER_DISTRICT_SIDE: usize = 3;
const N_CLIENTS: usize = 160;
const SEED: u64 = 77;
const EPOCHS: u64 = 4;

fn plane_cfg(loss: f64, corruption: f64) -> PlaneConfig {
    PlaneConfig {
        seed: SEED,
        epoch_period_s: 100.0,
        first_epoch_at_s: 10.0,
        horizon_s: 10.0 + (EPOCHS - 1) as f64 * 100.0,
        restarts: 2,
        faults: FaultPlan {
            seed: SEED ^ 0xFA17,
            loss,
            corruption,
            ..FaultPlan::default()
        },
        ..PlaneConfig::default()
    }
}

fn level(loss: f64, corruption: f64, table: &Arc<GoodputTable>) -> LossLevel {
    header(&format!("control-wire loss {:.0}%", loss * 100.0));
    let wlan = city_grid(DISTRICTS_PER_SIDE, APS_PER_DISTRICT_SIDE, N_CLIENTS, SEED);
    let ctl = AcornController::with_table(AcornConfig::default(), Arc::clone(table));
    let n_aps = wlan.aps.len();
    let mut plane = DistributedPlane::new(wlan, ctl, plane_cfg(loss, corruption));

    plane.run_to_quiescence();
    let twin = plane.centralized_twin();

    let matches_twin = plane.state().assignments == twin.assignments
        && plane.state().operating_width == twin.operating_width;
    let report = plane.report();
    let msgs_per_ap = report.msgs_sent as f64 / n_aps as f64;
    let frames_per_ap = report.frames_sent as f64 / n_aps as f64;
    println!(
        "{} zones, {} epochs: converged at epoch {} ({} replayed), twin match: {}",
        report.n_zones,
        report.epochs_scheduled,
        report.last_change_epoch,
        report.epochs_replayed,
        matches_twin,
    );
    println!(
        "{} msgs ({:.1}/AP), {} frames ({:.1}/AP): {} lost, {} corrupted, \
         {} retransmits, {} deduped, {} expired",
        report.msgs_sent,
        msgs_per_ap,
        report.frames_sent,
        frames_per_ap,
        report.frames_lost,
        report.frames_corrupted,
        report.msgs_retransmitted,
        report.msgs_deduped,
        report.msgs_expired,
    );
    println!("{:.1} Mbit/s total", report.total_bps / 1e6);
    LossLevel {
        loss,
        corruption,
        matches_twin,
        convergence_epoch: report.last_change_epoch,
        msgs_per_ap,
        frames_per_ap,
        report,
    }
}

fn main() {
    header("distributed control plane: 144-AP city, 16 zones");
    let table = Arc::new(GoodputTable::build(
        LinkQualityEstimator::default(),
        -12.0,
        48.0,
        0.25,
    ));
    let probe = city_grid(DISTRICTS_PER_SIDE, APS_PER_DISTRICT_SIDE, N_CLIENTS, SEED);
    let n_aps = probe.aps.len();
    let n_clients = probe.clients.len();
    println!("{n_aps} APs, {n_clients} clients, {EPOCHS} reallocation epochs");

    let levels = vec![
        level(0.0, 0.0, &table),
        level(0.1, 0.02, &table),
        level(0.3, 0.05, &table),
    ];
    let n_zones = levels[0].report.n_zones;
    let record = BenchDistributed {
        districts_per_side: DISTRICTS_PER_SIDE,
        aps_per_district_side: APS_PER_DISTRICT_SIDE,
        n_aps,
        n_clients,
        n_zones,
        epochs: EPOCHS,
        levels,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write("BENCH_distributed.json", s) {
                eprintln!("warning: cannot write BENCH_distributed.json: {e}");
            } else {
                println!("\n[saved BENCH_distributed.json]");
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
