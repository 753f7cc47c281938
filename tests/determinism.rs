//! Regression guard for the parallel evaluation engine: the thread count
//! must never change an answer. Every fan-out point (candidate ranking,
//! restarts, the churn loop) is exercised at `ACORN_THREADS` = 1, 2 and 8
//! on several seeded topologies, and the results — including the f64 bit
//! patterns — must be identical.
//!
//! The env var is process-global and the three thread counts must run
//! sequentially, so the tests serialize on a shared lock.

use acorn_core::allocation::{allocate, random_initial, AllocSpec, AllocationConfig};
use acorn_core::model::{ClientSnr, NetworkModel, ThroughputModel};
use acorn_core::{AcornConfig, AcornController, NetworkState, NullSink};
use acorn_ctrlplane::{CrashWindow, DistributedPlane, PlaneConfig};
use acorn_dcb::PolicyKind;
use acorn_events::{
    CityReport, CityScenario, CompositeReport, CompositeScenario, DcbReport, DriftSpec, FaultPlan,
    MobilitySpec, OverlappingBssGrid,
};
use acorn_obs::RecordingSink;
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::churn::{run_churn, ChurnConfig, ChurnReport};
use acorn_sim::scenario::{city_grid, enterprise_grid, zoned_city};
use acorn_topology::{ApId, ChannelPlan, ClientId, InterferenceGraph, Point, Trajectory, Wlan};
use acorn_traces::{AssociationDurations, Session, SessionGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Both tests sweep the process-global `ACORN_THREADS` variable, so they
/// must never overlap within the test binary's parallel harness.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Seeded deployments of varying size, each with its own session trace.
fn topology(i: usize) -> (Wlan, AcornController, Vec<Session>) {
    let seeds = [41u64, 42, 43];
    let dims = [(2usize, 2usize), (3, 2), (3, 3)];
    let mut rng = StdRng::seed_from_u64(seeds[i]);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let (rows, cols) = dims[i];
    let wlan = enterprise_grid(rows, cols, 50.0, sessions.len().max(4), seeds[i]);
    let ctl = AcornController::new(AcornConfig::default());
    (wlan, ctl, sessions)
}

/// A random abstract model for the direct `allocate` path.
fn abstract_model(i: usize) -> NetworkModel {
    let mut rng = StdRng::seed_from_u64(90 + i as u64);
    let n_aps = 4 + i;
    let cells: Vec<Vec<ClientSnr>> = (0..n_aps)
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|c| ClientSnr {
                    client: c,
                    snr20_db: rng.gen_range(1.5..32.0),
                })
                .collect()
        })
        .collect();
    NetworkModel::new(InterferenceGraph::complete(n_aps), cells)
}

fn run_controller_alloc(wlan: &Wlan, ctl: &AcornController, seed: u64) -> (NetworkState, u64) {
    let mut state = ctl.new_state(wlan, seed);
    for c in 0..wlan.clients.len() {
        ctl.associate(wlan, &mut state, ClientId(c), &NullSink);
    }
    let model = ctl.build_model(wlan, &state);
    let r = ctl.reallocate(
        &model,
        &mut state,
        8,
        seed.wrapping_add(10),
        false,
        &NullSink,
    );
    (state, r.total_bps.to_bits())
}

fn run_churn_once(
    wlan: &Wlan,
    ctl: &AcornController,
    sessions: &[Session],
    seed: u64,
) -> ChurnReport {
    let cfg = ChurnConfig {
        horizon_s: 3600.0,
        reallocation_period_s: 1200.0,
        restarts: 4,
        adapt_widths: true,
    };
    run_churn(wlan, ctl, sessions, &cfg, seed)
}

/// The event-runtime composite: churn + a walking client + shadowing
/// drift in one simulation — every standard process active at once, with
/// the executed-event log and the telemetry snapshot as the comparands.
fn run_composite(
    wlan: &Wlan,
    ctl: &AcornController,
    sessions: &[Session],
    seed: u64,
) -> CompositeReport {
    let mobile = ClientId(wlan.clients.len() - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan: wlan.clone(),
        sessions: sessions.to_vec(),
        horizon_s: 3600.0,
        reallocation_period_s: 1200.0,
        restarts: 4,
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
            phase_step_rad: 0.03,
        }),
        faults: None,
        seed,
        record_log: true,
    }
    .run(ctl)
}

/// The composite plus the fault layer at full tilt: an AP crash, message
/// loss/corruption/delay, and measurement faults. Every fault decision
/// runs inside event handlers with seeds keyed on event sequence numbers,
/// so the thread count must not move a single bit of it either.
fn run_faulty_composite(
    wlan: &Wlan,
    ctl: &AcornController,
    sessions: &[Session],
    seed: u64,
) -> CompositeReport {
    let mobile = ClientId(wlan.clients.len() - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan: wlan.clone(),
        sessions: sessions.to_vec(),
        horizon_s: 3600.0,
        reallocation_period_s: 1200.0,
        restarts: 4,
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
            phase_step_rad: 0.03,
        }),
        faults: Some(FaultPlan {
            seed: seed ^ 0xFA17,
            control_period_s: 30.0,
            ap_mttf_s: Some(600.0),
            ap_mttr_s: 300.0,
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
        record_log: true,
    }
    .run(ctl)
}

/// A disconnected abstract model: disjoint complete blocks, so the
/// sharded allocator actually fans out over several components.
fn multi_component_model(i: usize) -> NetworkModel {
    let mut rng = StdRng::seed_from_u64(700 + i as u64);
    let blocks: &[usize] = [&[3usize, 4, 2][..], &[1, 5, 3, 2][..], &[2, 2, 2, 2, 1][..]][i];
    let n: usize = blocks.iter().sum();
    let mut g = InterferenceGraph::new(n);
    let mut base = 0;
    for &b in blocks {
        for a in base..base + b {
            for c in (a + 1)..base + b {
                g.add_edge(ApId(a), ApId(c));
            }
        }
        base += b;
    }
    let cells: Vec<Vec<ClientSnr>> = (0..n)
        .map(|_| {
            (0..rng.gen_range(1..4usize))
                .map(|c| ClientSnr {
                    client: c,
                    snr20_db: rng.gen_range(1.5..32.0),
                })
                .collect()
        })
        .collect();
    NetworkModel::new(g, cells)
}

/// A memoized goodput table small enough to rebuild per run in a debug
/// test. Sharing one table between the compared runs would also be fine
/// now — its counters are cumulative and every model reports deltas
/// against its own attach-time cursor — but a fresh table per run keeps
/// each comparand fully self-contained.
fn small_table() -> Arc<GoodputTable> {
    Arc::new(GoodputTable::build(
        LinkQualityEstimator::default(),
        -12.0,
        48.0,
        0.25,
    ))
}

/// Thread-sweep goldens for the city-scale fast paths: the sharded
/// allocator on disconnected models (results and RecordingSink snapshot
/// bytes) and the city composite (sharded re-allocation + memoized
/// table + drift) must be bit-identical at `ACORN_THREADS` = 1, 2 and 8.
///
/// The city deployment defaults to 2×2 districts (16 APs) so the sweep
/// stays debug-test sized; set `ACORN_CITY_FULL=1` to run the 25×25
/// district (10 000 AP) composite instead — `scripts/ci.sh` does so in
/// release as part of the thread-count gate.
#[test]
fn sharded_and_city_runs_are_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let thread_counts = ["1", "2", "8"];
    let plan = ChannelPlan::restricted(6);
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });

    for topo in 0..3 {
        let n_aps = multi_component_model(topo).n_aps();
        let initial = random_initial(&plan, n_aps, 900 + topo as u64);
        let mut runs: Vec<(Vec<_>, u64)> = Vec::new();
        let mut snaps: Vec<String> = Vec::new();
        for threads in thread_counts {
            std::env::set_var("ACORN_THREADS", threads);
            // A fresh model per run: `reallocate` flushes the model's
            // counters (a read-reset), so a shared model would report its
            // build only in the first run's snapshot.
            let model = multi_component_model(topo);
            let sink = RecordingSink::new();
            let mut state = NetworkState {
                assignments: initial.clone(),
                assoc: Vec::new(),
                operating_width: initial.iter().map(|a| a.width()).collect(),
            };
            let r = ctl.reallocate(&model, &mut state, 6, 800 + topo as u64, true, &sink);
            runs.push((r.assignments, r.total_bps.to_bits()));
            snaps.push(sink.snapshot().to_json());
        }
        std::env::remove_var("ACORN_THREADS");
        for (t, threads) in thread_counts.iter().enumerate().skip(1) {
            assert_eq!(
                runs[0], runs[t],
                "model {topo}: sharded allocation differs at {threads} threads"
            );
            assert_eq!(
                snaps[0], snaps[t],
                "model {topo}: sharded snapshot bytes differ at {threads} threads"
            );
        }
        assert!(
            snaps[0].contains("alloc.shards"),
            "sharded path must report its shard count"
        );
    }

    let full = std::env::var("ACORN_CITY_FULL").is_ok();
    let (districts, aps_side) = if full { (25, 4) } else { (2, 2) };
    let n_aps = districts * districts * aps_side * aps_side;
    let mut rng = StdRng::seed_from_u64(4242);
    let sessions = SessionGenerator {
        arrival_rate_per_s: n_aps as f64 / 300.0,
        durations: AssociationDurations::default(),
    }
    .generate(&mut rng, 3600.0);
    let wlan = city_grid(districts, aps_side, sessions.len().max(1), 4242);
    let mut city_runs: Vec<CityReport> = Vec::new();
    for threads in thread_counts {
        std::env::set_var("ACORN_THREADS", threads);
        let ctl = AcornController::with_table(AcornConfig::default(), small_table());
        city_runs.push(
            CityScenario {
                wlan: wlan.clone(),
                sessions: sessions.clone(),
                horizon_s: 3600.0,
                reallocation_period_s: 1200.0,
                restarts: 2,
                candidate_radius_m: 120.0,
                adapt_widths: true,
                drift: Some(DriftSpec {
                    period_s: 600.0,
                    phase_step_rad: 0.02,
                }),
                faults: None,
                seed: 4242,
                record_log: true,
            }
            .run(&ctl),
        );
    }
    std::env::remove_var("ACORN_THREADS");
    for (t, threads) in thread_counts.iter().enumerate().skip(1) {
        assert_eq!(
            city_runs[0].stats, city_runs[t].stats,
            "city ({n_aps} APs): run stats differ at {threads} threads"
        );
        assert_eq!(
            city_runs[0].log, city_runs[t].log,
            "city ({n_aps} APs): event log differs at {threads} threads"
        );
        assert_eq!(
            city_runs[0].telemetry, city_runs[t].telemetry,
            "city ({n_aps} APs): telemetry differs at {threads} threads"
        );
        assert_eq!(
            city_runs[0].telemetry.to_json(),
            city_runs[t].telemetry.to_json(),
            "city ({n_aps} APs): telemetry JSON differs at {threads} threads"
        );
        assert_eq!(
            city_runs[0].realloc, city_runs[t].realloc,
            "city ({n_aps} APs): realloc records differ at {threads} threads"
        );
        assert_eq!(
            city_runs[0].final_state, city_runs[t].final_state,
            "city ({n_aps} APs): final state differs at {threads} threads"
        );
    }
    let shards = city_runs[0]
        .telemetry
        .counters
        .iter()
        .find(|c| c.name == "alloc.shards")
        .map(|c| c.value)
        .unwrap_or(0);
    assert!(
        shards as usize >= districts * districts,
        "city run reported {shards} shards for {} districts",
        districts * districts
    );
}

#[test]
fn results_are_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let thread_counts = ["1", "2", "8"];
    let alloc_cfg = AllocationConfig::default();
    let plan = ChannelPlan::restricted(6);

    for topo in 0..3 {
        let (wlan, ctl, sessions) = topology(topo);
        let model = abstract_model(topo);

        let mut controller_runs: Vec<(NetworkState, u64)> = Vec::new();
        let mut direct_runs: Vec<(Vec<_>, u64)> = Vec::new();
        let mut churn_runs: Vec<ChurnReport> = Vec::new();
        let mut composite_runs: Vec<CompositeReport> = Vec::new();
        let mut faulty_runs: Vec<CompositeReport> = Vec::new();
        let mut obs_snapshots: Vec<String> = Vec::new();
        for threads in thread_counts {
            std::env::set_var("ACORN_THREADS", threads);
            controller_runs.push(run_controller_alloc(&wlan, &ctl, 7 + topo as u64));
            let spec = AllocSpec {
                restarts: 8,
                seed: 500 + topo as u64,
                ..AllocSpec::default()
            };
            let r = allocate(&model, &plan, &alloc_cfg, &spec, &NullSink);
            direct_runs.push((r.assignments, r.total_bps.to_bits()));
            // The instrumented path must (a) agree with the plain path and
            // (b) record the same snapshot bytes at every thread count.
            let sink = RecordingSink::new();
            let r_obs = allocate(&model, &plan, &alloc_cfg, &spec, &sink);
            assert_eq!(
                r_obs.total_bps.to_bits(),
                direct_runs.last().unwrap().1,
                "topology {topo}: instrumentation changed the result at {threads} threads"
            );
            obs_snapshots.push(sink.snapshot().to_json());
            churn_runs.push(run_churn_once(&wlan, &ctl, &sessions, 21 + topo as u64));
            composite_runs.push(run_composite(&wlan, &ctl, &sessions, 33 + topo as u64));
            faulty_runs.push(run_faulty_composite(
                &wlan,
                &ctl,
                &sessions,
                33 + topo as u64,
            ));
        }
        std::env::remove_var("ACORN_THREADS");

        for (t, threads) in thread_counts.iter().enumerate().skip(1) {
            assert_eq!(
                controller_runs[0], controller_runs[t],
                "topology {topo}: controller allocation differs at {threads} threads"
            );
            assert_eq!(
                direct_runs[0], direct_runs[t],
                "topology {topo}: allocate differs at {threads} threads"
            );
            assert_eq!(
                churn_runs[0], churn_runs[t],
                "topology {topo}: churn run differs at {threads} threads"
            );
            assert_eq!(
                churn_runs[0].mean_after_bps().to_bits(),
                churn_runs[t].mean_after_bps().to_bits(),
                "topology {topo}: churn throughput bits differ at {threads} threads"
            );
            assert_eq!(
                composite_runs[0].log, composite_runs[t].log,
                "topology {topo}: composite event log differs at {threads} threads"
            );
            assert_eq!(
                composite_runs[0].telemetry, composite_runs[t].telemetry,
                "topology {topo}: composite telemetry differs at {threads} threads"
            );
            assert_eq!(
                composite_runs[0].telemetry.to_json(),
                composite_runs[t].telemetry.to_json(),
                "topology {topo}: composite telemetry JSON differs at {threads} threads"
            );
            assert_eq!(
                obs_snapshots[0], obs_snapshots[t],
                "topology {topo}: RecordingSink snapshot bytes differ at {threads} threads"
            );
            assert_eq!(
                composite_runs[0].final_state, composite_runs[t].final_state,
                "topology {topo}: composite final state differs at {threads} threads"
            );
            assert_eq!(
                faulty_runs[0].log, faulty_runs[t].log,
                "topology {topo}: faulty composite event log differs at {threads} threads"
            );
            assert_eq!(
                faulty_runs[0].telemetry, faulty_runs[t].telemetry,
                "topology {topo}: faulty composite telemetry differs at {threads} threads"
            );
            assert_eq!(
                faulty_runs[0].final_state, faulty_runs[t].final_state,
                "topology {topo}: faulty composite final state differs at {threads} threads"
            );
            assert_eq!(
                faulty_runs[0].resilience, faulty_runs[t].resilience,
                "topology {topo}: resilience report differs at {threads} threads"
            );
        }
    }
}

/// The per-transmission DCB layer joins the same contract: an
/// occupancy-aware run over the dense overlapping-BSS grid — the one
/// family whose decisions feed on mutable EWMA state — must produce a
/// byte-identical report at every thread count, alongside a
/// probabilistic run to cover the stochastic width draws.
#[test]
fn dcb_runs_are_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let thread_counts = ["1", "2", "8"];
    let grid = OverlappingBssGrid {
        nx: 3,
        ny: 3,
        clients_per_ap: 2,
        n_channels: 6,
        seed: 42,
    };
    let mut aware_runs: Vec<DcbReport> = Vec::new();
    let mut prob_runs: Vec<DcbReport> = Vec::new();
    for threads in thread_counts {
        std::env::set_var("ACORN_THREADS", threads);
        let mut aware = grid.scenario(PolicyKind::OccupancyAware(0.3), 4);
        aware.horizon_s = 2_000.0;
        aware_runs.push(aware.run());
        let mut prob = grid.scenario(PolicyKind::Probabilistic(0.5), 4);
        prob.horizon_s = 2_000.0;
        prob_runs.push(prob.run());
    }
    std::env::remove_var("ACORN_THREADS");
    assert!(aware_runs[0].events > 0, "the DCB run must execute events");
    for (t, threads) in thread_counts.iter().enumerate().skip(1) {
        assert_eq!(
            aware_runs[0], aware_runs[t],
            "dcb: occupancy-aware report differs at {threads} threads"
        );
        assert_eq!(
            prob_runs[0], prob_runs[t],
            "dcb: probabilistic report differs at {threads} threads"
        );
    }
}

/// The distributed control plane under wire faults *and* a mid-run
/// zone-controller crash must be bit-identical across thread counts:
/// the executed-event log, the telemetry JSON bytes, and the final
/// per-zone allocations may not depend on `ACORN_THREADS`.
#[test]
fn distributed_plane_is_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let thread_counts = ["1", "2", "8"];
    let mut runs = Vec::new();
    for threads in thread_counts {
        std::env::set_var("ACORN_THREADS", threads);
        let wlan = zoned_city(2, 2, 250.0, 16, 5);
        let ctl = AcornController::new(AcornConfig::default());
        let cfg = PlaneConfig {
            seed: 31,
            epoch_period_s: 100.0,
            first_epoch_at_s: 10.0,
            horizon_s: 510.0,
            restarts: 2,
            faults: FaultPlan {
                seed: 31 ^ 0xFA17,
                loss: 0.2,
                corruption: 0.05,
                delay_prob: 0.1,
                delay_max_s: 20.0,
                ..FaultPlan::default()
            },
            crashes: vec![CrashWindow {
                zone: 1,
                at_s: 130.0,
                restart_at_s: 230.0,
            }],
            record_log: true,
            ..PlaneConfig::default()
        };
        let mut plane = DistributedPlane::new(wlan, ctl, cfg);
        plane.run_to_quiescence();
        runs.push((
            plane
                .event_log()
                .expect("log recording was enabled")
                .clone(),
            plane.telemetry().snapshot().to_json(),
            plane.state().clone(),
            plane.sim.world.applied_epoch.clone(),
            plane.sim.world.fingerprints.clone(),
        ));
    }
    std::env::remove_var("ACORN_THREADS");
    assert!(
        runs[0].0.entries.len() > 0,
        "the faulty distributed run must execute events"
    );
    for (t, threads) in thread_counts.iter().enumerate().skip(1) {
        assert_eq!(
            runs[0].0, runs[t].0,
            "distributed: event log differs at {threads} threads"
        );
        assert_eq!(
            runs[0].1, runs[t].1,
            "distributed: telemetry JSON differs at {threads} threads"
        );
        assert_eq!(
            runs[0].2, runs[t].2,
            "distributed: final state differs at {threads} threads"
        );
        assert_eq!(
            runs[0].3, runs[t].3,
            "distributed: applied epochs differ at {threads} threads"
        );
        assert_eq!(
            runs[0].4, runs[t].4,
            "distributed: zone fingerprints differ at {threads} threads"
        );
    }
}
