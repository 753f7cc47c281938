//! Resilience benchmark: the composite churn + mobility + drift scenario
//! with the fault layer dialled across severity levels, written to
//! `BENCH_faults.json` at the repo root.
//!
//! Each level runs faulty-vs-golden-twin ([`CompositeScenario::run_resilience`])
//! on a 3×3 enterprise grid: the JSON records the injected fault volume
//! (crashes, lost/corrupted/delayed frames, measurement faults), the
//! detection and downtime latencies, how many re-allocation epochs the
//! controller spent in safe mode, and the headline number — throughput
//! retained relative to the fault-free twin.

use acorn_bench::header;
use acorn_core::{AcornConfig, AcornController};
use acorn_events::{CompositeScenario, DriftSpec, FaultPlan, MobilitySpec, ResilienceReport};
use acorn_sim::scenario::enterprise_grid;
use acorn_topology::{ClientId, Point, Trajectory};
use acorn_traces::SessionGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct FaultBench {
    level: &'static str,
    n_aps: usize,
    n_clients: usize,
    loss: f64,
    corruption: f64,
    delay_prob: f64,
    ap_mttf_s: Option<f64>,
    wall_s: f64,
    events: u64,
    report: ResilienceReport,
}

#[derive(Serialize)]
struct BenchFaults {
    grid_side: usize,
    horizon_s: f64,
    control_period_s: f64,
    levels: Vec<FaultBench>,
}

const SIDE: usize = 3;
const HORIZON_S: f64 = 3600.0;
const CONTROL_PERIOD_S: f64 = 30.0;

fn scenario(seed: u64, faults: FaultPlan) -> CompositeScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, HORIZON_S);
    let n_clients = sessions.len().max(2) + 1;
    let wlan = enterprise_grid(SIDE, SIDE, 50.0, n_clients, seed);
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan,
        sessions,
        horizon_s: HORIZON_S,
        reallocation_period_s: 300.0,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 40.0, from.y),
                speed_mps: 0.02,
            },
            sample_period_s: 120.0,
        }),
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: Some(faults),
        seed,
        record_log: false,
    }
}

fn level(name: &'static str, plan: FaultPlan) -> FaultBench {
    header(&format!("fault layer: {name}"));
    let ctl = AcornController::new(AcornConfig::default());
    let sc = scenario(42, plan);
    let n_aps = sc.wlan.aps.len();
    let n_clients = sc.wlan.clients.len();
    let t0 = Instant::now();
    let report = sc.run_resilience(&ctl);
    let wall = t0.elapsed().as_secs_f64();
    let r = report
        .resilience
        .expect("faulty scenarios always carry a report");
    println!(
        "loss={:.2} corrupt={:.2} delay={:.2} mttf={:?}: {} frames ({} lost, {} corrupted, \
         {} delayed), {} crashes, {} rescans, {} safe-mode epochs",
        plan.loss,
        plan.corruption,
        plan.delay_prob,
        plan.ap_mttf_s,
        r.frames_sent,
        r.frames_lost,
        r.frames_corrupted,
        r.frames_delayed,
        r.crashes,
        r.rescans,
        r.safe_mode_epochs,
    );
    println!(
        "detection {:.0} s, downtime {:.0} s -> {:.1}% throughput retained ({:.1} of {:.1} Mbit/s)",
        r.mean_detection_delay_s,
        r.mean_downtime_s,
        r.throughput_retained * 100.0,
        r.faulty_mean_bps / 1e6,
        r.golden_mean_bps / 1e6,
    );
    FaultBench {
        level: name,
        n_aps,
        n_clients,
        loss: plan.loss,
        corruption: plan.corruption,
        delay_prob: plan.delay_prob,
        ap_mttf_s: plan.ap_mttf_s,
        wall_s: wall,
        events: report.stats.events,
        report: r,
    }
}

fn main() {
    let base = FaultPlan {
        seed: 0xFA17,
        control_period_s: CONTROL_PERIOD_S,
        ap_mttr_s: 600.0,
        max_crashes: 1,
        delay_max_s: 45.0,
        ..FaultPlan::default()
    };
    let levels = vec![
        level(
            "light (5% loss, no crash)",
            FaultPlan {
                loss: 0.05,
                corruption: 0.01,
                delay_prob: 0.02,
                meas_nan: 0.005,
                meas_outlier: 0.01,
                meas_freeze: 0.01,
                ..base
            },
        ),
        level(
            "acceptance (20% loss + one AP crash)",
            FaultPlan {
                ap_mttf_s: Some(400.0),
                loss: 0.2,
                corruption: 0.05,
                delay_prob: 0.1,
                meas_nan: 0.02,
                meas_outlier: 0.05,
                meas_freeze: 0.05,
                ..base
            },
        ),
        level(
            "heavy (40% loss + one AP crash)",
            FaultPlan {
                ap_mttf_s: Some(300.0),
                loss: 0.4,
                corruption: 0.1,
                delay_prob: 0.2,
                meas_nan: 0.05,
                meas_outlier: 0.1,
                meas_freeze: 0.1,
                ..base
            },
        ),
    ];
    let record = BenchFaults {
        grid_side: SIDE,
        horizon_s: HORIZON_S,
        control_period_s: CONTROL_PERIOD_S,
        levels,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write("BENCH_faults.json", s) {
                eprintln!("warning: cannot write BENCH_faults.json: {e}");
            } else {
                println!("\n[saved BENCH_faults.json]");
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
