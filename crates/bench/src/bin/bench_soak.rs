//! Chaos-soak benchmark: multi-day virtual-time runs over a city-scale
//! deployment under three fault profiles, written to `BENCH_soak.json`
//! at the repo root.
//!
//! Each profile streams a diurnal heavy-tailed workload over the same
//! 64-AP city grid for three virtual days with the invariant watchdog
//! on, and records the numbers the soak story stands on: events
//! dispatched, peak RSS (the bounded-memory telemetry claim, measured),
//! quality drift over the probe window, the sketch-backed client goodput
//! quantiles, and — for the fault profiles — throughput retained against
//! the fault-free golden twin. Event rates are perfbench's to measure
//! (`perfbench -- --workload soak`), so nothing here times itself.

use acorn_bench::header;
use acorn_core::{AcornConfig, AcornController};
use acorn_events::{FaultPlan, ResilienceReport};
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::city_grid;
use acorn_soak::{peak_rss_kb, FlashCrowd, SoakReport, SoakScenario, WatchdogSpec, WorkloadSpec};
use serde::Serialize;
use std::sync::Arc;

const HORIZON_S: f64 = 3.0 * 86_400.0;
const SEED: u64 = 0x50AC;

#[derive(Serialize)]
struct SoakRow {
    profile: &'static str,
    n_aps: usize,
    n_clients: usize,
    horizon_s: f64,
    events: u64,
    peak_rss_kb: Option<u64>,
    arrivals: u64,
    departures: u64,
    watchdog_checks: u64,
    watchdog_violations: u64,
    probe_samples: u64,
    mean_network_bps: f64,
    quality_drift: Option<f64>,
    client_bps_p50: Option<f64>,
    client_bps_p95: Option<f64>,
    client_bps_p99: Option<f64>,
    sketch_fingerprint: u64,
    throughput_retained: Option<f64>,
    resilience: Option<ResilienceReport>,
}

#[derive(Serialize)]
struct BenchSoak {
    horizon_s: f64,
    seed: u64,
    rows: Vec<SoakRow>,
}

fn scenario() -> SoakScenario {
    let wlan = city_grid(4, 2, 400, SEED);
    let mut s = SoakScenario::new(wlan, HORIZON_S, SEED);
    s.workload = WorkloadSpec {
        base_rate_per_s: 1.0 / 30.0,
        diurnal_amplitude: 0.6,
        day_period_s: 86_400.0,
        ..WorkloadSpec::default()
    };
    s.probe_period_s = 60.0;
    s.watchdog = Some(WatchdogSpec {
        period_s: 300.0,
        graph_check_every: 16,
        fail_fast: true,
    });
    s
}

fn steady_faults() -> FaultPlan {
    FaultPlan {
        seed: SEED ^ 0xFA17,
        control_period_s: 10.0,
        // One AP down at a time, ~18% duty: crashes chain sequentially,
        // so 1/64 cells degraded for mttr/(mttf+mttr) of the run — well
        // inside the >= 70% retention budget, with dozens of crash /
        // repair / rescan cycles over three days.
        ap_mttf_s: Some(4_000.0),
        ap_mttr_s: 900.0,
        max_crashes: 1_000,
        loss: 0.1,
        corruption: 0.02,
        delay_prob: 0.05,
        delay_max_s: 30.0,
        meas_nan: 0.01,
        meas_outlier: 0.02,
        meas_freeze: 0.02,
        ..FaultPlan::default()
    }
}

fn flash_crowds() -> Vec<FlashCrowd> {
    // One lunch-hour surge per virtual day.
    (0..3)
        .map(|day| FlashCrowd {
            at_s: day as f64 * 86_400.0 + 43_200.0,
            duration_s: 3_600.0,
            rate_multiplier: 5.0,
        })
        .collect()
}

fn row(profile: &'static str, sc: &SoakScenario, resilience_twin: bool) -> SoakRow {
    header(&format!("soak profile: {profile}"));
    // The memoized SNR->goodput table is what makes multi-day horizons
    // affordable: every model evaluation and beacon delay hits the table
    // instead of re-running the PHY estimator. A fresh table per profile
    // keeps the process-global hit counters comparable across rows.
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    let ctl = AcornController::with_table(AcornConfig::default(), table);
    let r: SoakReport = if resilience_twin {
        sc.run_resilience(&ctl)
    } else {
        sc.run(&ctl)
    };
    let client = r.sketch(acorn_soak::probe::CLIENT_BPS);
    let retained = r.resilience.as_ref().map(|res| res.throughput_retained);
    println!("{} events, peak RSS {:?} kB", r.stats.events, peak_rss_kb());
    println!(
        "arrivals {}, watchdog {} checks / {} violations, mean goodput {:.1} Mbit/s, \
         drift {:?}, retained {:?}",
        r.counter("sessions.arrivals"),
        r.checks,
        r.violations,
        r.mean_network_bps() / 1e6,
        r.quality_drift(),
        retained,
    );
    assert_eq!(r.violations, 0, "soak bench must run invariant-clean");
    SoakRow {
        profile,
        n_aps: sc.wlan.aps.len(),
        n_clients: sc.wlan.clients.len(),
        horizon_s: sc.horizon_s,
        events: r.stats.events,
        peak_rss_kb: r.peak_rss_kb,
        arrivals: r.counter("sessions.arrivals"),
        departures: r.counter("sessions.departures"),
        watchdog_checks: r.checks,
        watchdog_violations: r.violations,
        probe_samples: r.counter("probe.samples"),
        mean_network_bps: r.mean_network_bps(),
        quality_drift: r.quality_drift(),
        client_bps_p50: client.and_then(|s| s.p50),
        client_bps_p95: client.and_then(|s| s.p95),
        client_bps_p99: client.and_then(|s| s.p99),
        sketch_fingerprint: client.map(|s| s.fingerprint).unwrap_or(0),
        throughput_retained: retained,
        resilience: r.resilience,
    }
}

fn main() {
    let mut rows = Vec::new();

    rows.push(row("no-fault", &scenario(), false));

    let mut steady = scenario();
    steady.faults = Some(steady_faults());
    rows.push(row("steady-fault", &steady, true));

    let mut flash = scenario();
    flash.faults = Some(steady_faults());
    flash.workload.flash = flash_crowds();
    rows.push(row("flash-crowd+faults", &flash, true));

    if let Some(retained) = rows[1].throughput_retained {
        assert!(
            retained >= 0.70,
            "steady-fault throughput retention below budget: {retained:.3}"
        );
        println!(
            "\nsteady-fault retention {:.1}% (budget >= 70%)",
            retained * 100.0
        );
    }

    let record = BenchSoak {
        horizon_s: HORIZON_S,
        seed: SEED,
        rows,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write("BENCH_soak.json", s) {
                eprintln!("warning: cannot write BENCH_soak.json: {e}");
            } else {
                println!("\n[saved BENCH_soak.json]");
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
