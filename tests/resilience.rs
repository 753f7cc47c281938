//! Acceptance tests for the fault-injection layer and the
//! graceful-degradation controller: a realistic enterprise scenario with
//! heavy control-plane faults must complete without panics, detect and
//! ride out an AP crash, and retain most of the fault-free throughput.

use acorn_core::{AcornConfig, AcornController};
use acorn_events::{
    CityScenario, CompositeReport, CompositeScenario, DriftSpec, FaultPlan, MobilitySpec,
    ResilienceReport,
};
use acorn_sim::scenario::{city_grid, enterprise_grid};
use acorn_topology::{ClientId, Point, Trajectory, Wlan};
use acorn_traces::{Session, SessionGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ISSUE acceptance scenario: churn + mobility + drift with 20%
/// control-message loss, corruption, delay, measurement faults, and one
/// AP crash/restart cycle.
fn faulty_scenario(seed: u64) -> CompositeScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let n_clients = sessions.len().max(2) + 1;
    let wlan = enterprise_grid(3, 3, 50.0, n_clients, seed);
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan,
        sessions,
        horizon_s: 3600.0,
        // Dense epochs so the outage window always overlaps several.
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
        faults: Some(FaultPlan {
            seed: seed ^ 0xFA17,
            control_period_s: 30.0,
            ap_mttf_s: Some(400.0), // virtually certain to crash in 3600 s
            ap_mttr_s: 600.0,       // long enough to span re-allocation epochs
            max_crashes: 1,
            loss: 0.2,
            corruption: 0.05,
            delay_prob: 0.1,
            delay_max_s: 45.0,
            meas_nan: 0.02,
            meas_outlier: 0.05,
            meas_freeze: 0.05,
            ..FaultPlan::default()
        }),
        seed,
        record_log: false,
    }
}

fn resilience(report: &CompositeReport) -> ResilienceReport {
    report
        .resilience
        .expect("a faulty scenario must carry a resilience report")
}

#[test]
fn faulty_composite_completes_and_retains_most_throughput() {
    let ctl = AcornController::new(AcornConfig::default());
    let report = faulty_scenario(7).run_resilience(&ctl);
    let r = resilience(&report);

    // The crash/restart cycle actually happened and was ridden out.
    assert_eq!(r.crashes, 1, "{r:?}");
    assert_eq!(r.restarts, 1, "{r:?}");
    assert!(r.mean_downtime_s > 0.0, "{r:?}");

    // The fault gauntlet actually fired: losses, corruptions, delays, and
    // measurement faults all left marks, and every corrupted frame that
    // reached a parser failed *typed* (the run not panicking is itself
    // the no-unwrap guarantee; the counter shows the path was exercised).
    assert!(r.frames_sent > 100, "{r:?}");
    assert!(r.frames_lost > 0, "{r:?}");
    assert!(r.frames_corrupted > 0, "{r:?}");
    assert!(r.frames_delayed > 0, "{r:?}");
    assert!(r.parse_errors > 0, "{r:?}");
    assert!(r.measurement_faults > 0, "{r:?}");

    // Loss rate is in the right ballpark for p = 0.2.
    let loss_rate = r.frames_lost as f64 / r.frames_sent as f64;
    assert!(
        (0.1..0.3).contains(&loss_rate),
        "loss rate {loss_rate:.3} implausible for p=0.2: {r:?}"
    );

    // Clients detected the dead AP and re-scanned off it, and the
    // controller ran degraded epochs while the network had a hole.
    assert!(r.rescans > 0, "{r:?}");
    assert!(r.mean_detection_delay_s > 0.0, "{r:?}");
    assert!(r.safe_mode_epochs > 0, "{r:?}");
    assert!(
        report.realloc.iter().any(|e| e.degraded),
        "no re-allocation epoch recorded as degraded"
    );
    assert!(
        report.realloc.iter().any(|e| !e.degraded),
        "healthy epochs should still re-optimize"
    );

    // The headline number: ≥ 70% of fault-free throughput retained.
    assert!(r.golden_mean_bps > 0.0, "{r:?}");
    assert!(
        r.throughput_retained >= 0.70,
        "retained only {:.1}% of golden throughput: {r:?}",
        r.throughput_retained * 100.0
    );
    // Detection-triggered re-association can slightly *improve* on the
    // golden twin's stale associations, so allow a small overshoot.
    assert!(
        r.throughput_retained <= 1.10,
        "faulty run should not beat golden by >10%: {r:?}"
    );
}

#[test]
fn benign_fault_plan_changes_nothing_but_the_bookkeeping() {
    // A benign plan runs the whole control plane on the wire — frames,
    // trackers, CSA — but injects nothing, so nothing is lost, nothing
    // fails to parse, and no epoch degrades.
    let ctl = AcornController::new(AcornConfig::default());
    let mut sc = faulty_scenario(11);
    sc.faults = Some(sc.faults.unwrap().benign_twin());
    let report = sc.run(&ctl);
    let r = resilience(&report);
    assert_eq!(r.crashes, 0);
    assert_eq!(r.frames_lost, 0);
    assert_eq!(r.frames_corrupted, 0);
    assert_eq!(r.frames_delayed, 0);
    assert_eq!(r.parse_errors, 0, "clean frames must parse: {r:?}");
    assert_eq!(r.measurement_faults, 0);
    assert_eq!(r.csa_orphans, 0);
    assert_eq!(r.safe_mode_epochs, 0);
    assert!(r.frames_sent > 100, "the wire path still runs: {r:?}");
    assert!(report.realloc.iter().all(|e| !e.degraded));
}

#[test]
fn resilience_report_serializes_to_json() {
    let ctl = AcornController::new(AcornConfig::default());
    let mut sc = faulty_scenario(3);
    sc.horizon_s = 600.0;
    sc.faults = Some(FaultPlan {
        ap_mttf_s: Some(120.0),
        ap_mttr_s: 120.0,
        loss: 0.3,
        ..sc.faults.unwrap()
    });
    let report = sc.run(&ctl);
    let json = serde_json::to_string_pretty(&resilience(&report)).expect("report serializes");
    for key in ["crashes", "throughput_retained", "mean_detection_delay_s"] {
        assert!(json.contains(key), "JSON is missing {key}: {json}");
    }
}

#[test]
fn crash_without_restart_before_horizon_leaves_the_hole_open() {
    // MTTR longer than the remaining horizon: the AP stays down, the
    // controller stays in safe mode to the end, and the final state still
    // has every surviving client on a live AP.
    let ctl = AcornController::new(AcornConfig::default());
    let mut sc = faulty_scenario(5);
    sc.faults = Some(FaultPlan {
        ap_mttf_s: Some(200.0),
        ap_mttr_s: 1e9,
        ..sc.faults.unwrap()
    });
    let report = sc.run(&ctl);
    let r = resilience(&report);
    assert_eq!(r.crashes, 1, "{r:?}");
    assert_eq!(r.restarts, 0, "{r:?}");
    assert_eq!(r.mean_downtime_s, 0.0, "downtime closes only on restart");
}

/// One AP with `n` clients 5–15 m away, every one associated for the
/// whole 600 s run under a benign fault plan.
fn crowded_cell(n: usize) -> (Wlan, Vec<Session>, FaultPlan) {
    let clients = (0..n)
        .map(|i| {
            let r = 5.0 + 10.0 * i as f64 / n as f64;
            let phi = 2.399_963 * i as f64; // golden angle: no two clients stack
            Point::new(r * phi.cos(), r * phi.sin())
        })
        .collect();
    let wlan = Wlan::new(vec![Point::new(0.0, 0.0)], clients, 5);
    let sessions = (0..n)
        .map(|client| Session {
            client,
            start_s: 0.01 * client as f64,
            duration_s: 600.0,
        })
        .collect();
    let plan = FaultPlan {
        seed: 5,
        ..FaultPlan::default()
    };
    (wlan, sessions, plan)
}

#[test]
fn a_cell_too_large_for_one_element_still_beacons_in_both_worlds() {
    // 60 delays overflow one 255-byte vendor element; the beacon goes out
    // in fragments, so the AP's clients keep hearing it and never
    // declare it dead.
    let ctl = AcornController::new(AcornConfig::default());
    for n in [60, 200] {
        let (wlan, sessions, plan) = crowded_cell(n);
        let composite = CompositeScenario {
            wlan: wlan.clone(),
            sessions: sessions.clone(),
            horizon_s: 600.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            adapt_widths: true,
            mobility: None,
            drift: None,
            faults: Some(plan),
            seed: 5,
            record_log: false,
        };
        let city = CityScenario {
            wlan,
            sessions,
            horizon_s: 600.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: None,
            faults: Some(plan),
            seed: 5,
            record_log: false,
        };
        let reports = [
            ("composite", composite.run(&ctl).resilience),
            ("city", city.run(&ctl).resilience),
        ];
        for (world, r) in reports {
            let r = r.expect("faults were set");
            assert_eq!(r.rescans, 0, "{world}, {n} clients: {r:?}");
            assert_eq!(r.parse_errors, 0, "{world}, {n} clients: {r:?}");
            assert!(r.frames_sent > 0, "{world}, {n} clients: {r:?}");
        }
    }
}

#[test]
fn measurement_faults_alone_leave_the_city_world_untouched() {
    // The incremental world measures its cached links, and its gates only
    // count what they reject: a report they accept equals the cached SNR
    // it was drawn from. So NaN, outlier and frozen readings, with no
    // crash and a clean wire, end where the benign twin ends.
    let ctl = AcornController::new(AcornConfig::default());
    let arrivals = SessionGenerator {
        arrival_rate_per_s: 1.0 / 30.0,
        ..SessionGenerator::enterprise_default()
    };
    let sessions = arrivals.generate(&mut StdRng::seed_from_u64(21), 1800.0);
    let n_clients = sessions.len().max(1);
    let plan = FaultPlan {
        seed: 21,
        control_period_s: 20.0,
        meas_nan: 0.05,
        meas_outlier: 0.1,
        meas_freeze: 0.05,
        ..FaultPlan::default()
    };
    let scenario = |faults| CityScenario {
        wlan: city_grid(2, 2, n_clients, 21),
        sessions: sessions.clone(),
        horizon_s: 1800.0,
        reallocation_period_s: 300.0,
        restarts: 1,
        candidate_radius_m: 120.0,
        adapt_widths: true,
        drift: Some(DriftSpec {
            period_s: 250.0,
            phase_step_rad: 0.05,
        }),
        faults: Some(faults),
        seed: 21,
        record_log: false,
    };
    let faulty = scenario(plan).run(&ctl);
    let benign = scenario(plan.benign_twin()).run(&ctl);
    let r = faulty.resilience.expect("faults were set");
    assert!(r.measurement_faults > 0, "{r:?}");
    assert!(r.outliers_rejected > 0, "{r:?}");
    assert_eq!(faulty.final_state, benign.final_state);
    assert_eq!(faulty.realloc, benign.realloc);
    let network_bps = |report: &acorn_events::CityReport| {
        let mut series = report.telemetry.series.iter();
        series
            .find(|s| s.name == "resilience.network_bps")
            .map(|s| (s.times_s.clone(), s.values.clone()))
            .expect("the control round samples the network")
    };
    assert_eq!(network_bps(&faulty), network_bps(&benign));
}
