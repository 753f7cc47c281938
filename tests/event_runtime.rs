//! Port-fidelity guards for the event runtime.
//!
//! `sim::churn` and `sim::mobility` were rewired from hand-rolled time
//! loops onto the `acorn-events` kernel. The fingerprints below were
//! captured from the *pre-port* implementations (FNV-1a over every f64
//! bit pattern in the outputs) and are hard-coded here: the kernel-based
//! adapters must reproduce the old loops bit-for-bit for the default
//! scenarios. If a change to the kernel or the adapters moves any output
//! bit, these hashes move and the diff is intentional-or-bust.
//!
//! The two fault fingerprints at the bottom hold the exact and the
//! incremental world's fault layers to the outputs they produced while
//! each world still had its own session, re-allocation, drift and fault
//! processes.

use acorn_core::{AcornConfig, AcornController};
use acorn_phy::ChannelWidth;
use acorn_sim::churn::{run_churn, ChurnConfig, ChurnReport};
use acorn_sim::mobility::{paper_walk, MobilitySample, WidthPolicy};
use acorn_sim::scenario::enterprise_grid;
use acorn_traces::SessionGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

fn churn_fingerprint(report: &ChurnReport) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for s in &report.snapshots {
        fnv(&mut h, s.t_s.to_bits());
        fnv(&mut h, s.active_clients as u64);
        fnv(&mut h, s.before_bps.to_bits());
        fnv(&mut h, s.after_bps.to_bits());
        fnv(&mut h, s.switches as u64);
    }
    for a in &report.final_state.assoc {
        fnv(&mut h, a.map(|ap| ap.0 as u64 + 1).unwrap_or(0));
    }
    h
}

fn mobility_fingerprint(trace: &[MobilitySample]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for s in trace {
        fnv(&mut h, s.t_s.to_bits());
        fnv(&mut h, matches!(s.width, ChannelWidth::Ht40) as u64);
        fnv(&mut h, s.cell_bps.to_bits());
        fnv(&mut h, s.mobile_snr20_db.to_bits());
    }
    h
}

#[test]
fn churn_port_is_bit_identical_to_the_preport_loop() {
    // (adapt_widths, churn seed) -> pre-port fingerprint. The adapt and
    // no-adapt fingerprints coincide for these seeds: every re-allocation
    // resets operating widths, and the hysteretic adaptation holds them
    // between epochs on this deployment.
    let golden = [
        (false, 3u64, 0xdba288a6604ac383u64),
        (false, 9, 0x793b1057822a08cd),
        (true, 3, 0xdba288a6604ac383),
        (true, 9, 0x793b1057822a08cd),
    ];
    let mut rng = StdRng::seed_from_u64(1);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 7200.0);
    let wlan = enterprise_grid(2, 2, 50.0, sessions.len().max(1), 2);
    let ctl = AcornController::new(AcornConfig::default());
    for (adapt, seed, expect) in golden {
        let cfg = ChurnConfig {
            horizon_s: 7200.0,
            reallocation_period_s: 1800.0,
            restarts: 2,
            adapt_widths: adapt,
        };
        let report = run_churn(&wlan, &ctl, &sessions, &cfg, seed);
        assert_eq!(report.snapshots.len(), 3);
        assert_eq!(
            churn_fingerprint(&report),
            expect,
            "churn adapt={adapt} seed={seed}: output bits diverged from the pre-port loop"
        );
    }
}

#[test]
fn mobility_port_is_bit_identical_to_the_preport_loop() {
    // (outbound, policy) -> pre-port fingerprint over the 51-sample walk.
    let golden: [(bool, WidthPolicy, u64); 6] = [
        (true, WidthPolicy::AcornAdaptive, 0x7b87a421694c051c),
        (
            true,
            WidthPolicy::Fixed(ChannelWidth::Ht20),
            0x96754cf1cc76f973,
        ),
        (
            true,
            WidthPolicy::Fixed(ChannelWidth::Ht40),
            0x8a3c2e72a8837ac7,
        ),
        (false, WidthPolicy::AcornAdaptive, 0xadfeefb24b2b690e),
        (
            false,
            WidthPolicy::Fixed(ChannelWidth::Ht20),
            0xc7b4c4b2e7a434dc,
        ),
        (
            false,
            WidthPolicy::Fixed(ChannelWidth::Ht40),
            0x7e5ddefbccbb5ab3,
        ),
    ];
    for (outbound, policy, expect) in golden {
        let trace = paper_walk(outbound).run(policy);
        assert_eq!(trace.len(), 51);
        assert_eq!(
            mobility_fingerprint(&trace),
            expect,
            "mobility outbound={outbound} policy={policy:?}: trace bits diverged"
        );
    }
}

#[test]
fn composite_scenario_exports_a_telemetry_snapshot() {
    use acorn_events::{CompositeScenario, DriftSpec, MobilitySpec};
    use acorn_topology::{ClientId, Point, Trajectory};

    let mut rng = StdRng::seed_from_u64(5);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let wlan = enterprise_grid(2, 2, 50.0, sessions.len().max(2), 7);
    let ctl = AcornController::new(AcornConfig::default());
    let mobile = ClientId(wlan.clients.len() - 1);
    let from = wlan.clients[mobile.0].pos;
    let report = CompositeScenario {
        wlan,
        sessions,
        horizon_s: 3600.0,
        reallocation_period_s: 1200.0,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 30.0, from.y),
                speed_mps: 0.01,
            },
            sample_period_s: 300.0,
        }),
        drift: Some(DriftSpec {
            period_s: 900.0,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed: 11,
        record_log: true,
    }
    .run(&ctl);

    // Two re-allocations (1200, 2400), 13 mobility samples, 4 drift steps.
    assert_eq!(report.realloc.len(), 2);
    let json = report.telemetry.to_json();
    for metric in [
        "network_bps.after",
        "switches",
        "association.delay_s",
        "mobility.snr20_db",
        "drift.phase_rad",
    ] {
        assert!(json.contains(metric), "snapshot is missing {metric}");
    }
    // The log's dispatch order is strictly (time, seq)-sorted.
    let log = report.log.unwrap();
    for w in log.entries.windows(2) {
        let a = (f64::from_bits(w[0].time_bits), w[0].seq);
        let b = (f64::from_bits(w[1].time_bits), w[1].seq);
        assert!(a < b, "log out of order: {a:?} !< {b:?}");
    }
}

/// Byte-wise FNV-1a over a run's outputs, the way the repository
/// benchmark fingerprints a simulation: event count, telemetry JSON,
/// then the `Debug` renderings of the final state and the re-allocation
/// log.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

fn run_fingerprint(
    events: u64,
    telemetry: &acorn_events::TelemetrySnapshot,
    final_state: &acorn_core::NetworkState,
    realloc: &[acorn_events::ReallocRecord],
) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv(0xcbf29ce484222325);
    for b in events.to_le_bytes() {
        h.0 = (h.0 ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h.write_str(&telemetry.to_json()).unwrap();
    write!(h, "{final_state:?}{realloc:?}").unwrap();
    h.0
}

/// Every fault the layer injects, at rates that make each one fire.
fn heavy_faults(seed: u64) -> acorn_events::FaultPlan {
    acorn_events::FaultPlan {
        seed: seed ^ 0xFA17,
        control_period_s: 30.0,
        ap_mttf_s: Some(400.0),
        ap_mttr_s: 600.0,
        max_crashes: 2,
        loss: 0.2,
        corruption: 0.05,
        delay_prob: 0.1,
        delay_max_s: 45.0,
        meas_nan: 0.02,
        meas_outlier: 0.05,
        meas_freeze: 0.05,
        ..acorn_events::FaultPlan::default()
    }
}

#[test]
fn faulty_composite_is_pinned() {
    // The resilience suite's acceptance scenario (churn + mobility +
    // drift over a 3x3 grid, one AP crash, a lossy, corrupting and
    // delaying control wire, measurement faults): pins the exact world's
    // fault layer — IAPP, CSA, trackers, crash lifecycle, beacon
    // gauntlet, silence detection — byte for byte.
    use acorn_events::{CompositeScenario, DriftSpec, MobilitySpec};
    use acorn_topology::{ClientId, Point, Trajectory};

    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let n_clients = sessions.len().max(2) + 1;
    let wlan = enterprise_grid(3, 3, 50.0, n_clients, seed);
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    let sc = CompositeScenario {
        wlan,
        sessions,
        horizon_s: 3600.0,
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
        faults: Some(acorn_events::FaultPlan {
            max_crashes: 1,
            ..heavy_faults(seed)
        }),
        seed,
        record_log: false,
    };
    let ctl = AcornController::new(AcornConfig::default());
    let r = sc.run(&ctl);
    let res = r.resilience.expect("faults were set");
    assert!(res.crashes == 1 && res.rescans > 0 && res.parse_errors > 0);
    let fp = run_fingerprint(r.stats.events, &r.telemetry, &r.final_state, &r.realloc);
    assert_eq!(
        fp, 0x5181e049c2ad2c93,
        "faulty composite output moved: {fp:#018x}"
    );
}

/// A composite whose walker holds sessions: the 3x3 grid of
/// `faulty_composite_is_pinned`, with the client of the trace's longest
/// session walking 150 m diagonally across the floor, so its link SNRs
/// and its client-mediated conflict edges change while it is associated.
/// Returns the scenario and the walker.
fn walker_composite(
    faults: Option<acorn_events::FaultPlan>,
) -> (acorn_events::CompositeScenario, usize) {
    use acorn_events::{CompositeScenario, DriftSpec, MobilitySpec};
    use acorn_topology::{ClientId, Point, Trajectory};

    let seed = 11;
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let walker = sessions
        .iter()
        .max_by(|a, b| a.duration_s.total_cmp(&b.duration_s))
        .expect("the trace has sessions")
        .client;
    let wlan = enterprise_grid(3, 3, 50.0, sessions.len(), seed);
    let from = wlan.clients[walker].pos;
    let sc = CompositeScenario {
        wlan,
        sessions,
        horizon_s: 3600.0,
        reallocation_period_s: 600.0,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: ClientId(walker),
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 120.0, from.y + 90.0),
                speed_mps: 0.05,
            },
            sample_period_s: 60.0,
        }),
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults,
        seed,
        record_log: true,
    };
    (sc, walker)
}

#[test]
fn associated_walker_is_pinned() {
    // Pins the exact world's mobility path for a walker that is
    // associated while it moves (the walkers of the goldens above and of
    // the repository benchmark are spare slots with no session), with
    // and without the fault layer.
    let ctl = AcornController::new(AcornConfig::default());
    for (faulty, expect) in [(false, 0xfa066ca2d7dcfb53u64), (true, 0xcb0811e60bcaba39)] {
        let plan = faulty.then(|| acorn_events::FaultPlan {
            max_crashes: 1,
            ..heavy_faults(11)
        });
        let (sc, walker) = walker_composite(plan);
        let r = sc.run(&ctl);
        // Mobility samples that fire while the walker's session is live:
        // every AP of the floor is within its association range, so it
        // holds an AP at each of them.
        let (arrive, depart) = (format!("Arrive({walker})"), format!("Depart({walker})"));
        let (mut live, mut samples) = (false, 0);
        for e in &r.log.as_ref().expect("the log was recorded").entries {
            if e.kind == arrive || e.kind == depart {
                live = e.kind == arrive;
            } else if live && e.kind == "MobilitySample" {
                samples += 1;
            }
        }
        assert!(samples >= 10, "walker held a session at {samples} samples");
        let fp = run_fingerprint(r.stats.events, &r.telemetry, &r.final_state, &r.realloc);
        assert_eq!(
            fp, expect,
            "walker composite (faults: {faulty}) moved: {fp:#018x}"
        );
    }
}

#[test]
fn faulty_city_is_pinned() {
    // A 16-AP city grid with session churn, drift and every fault kind:
    // pins the incremental world's session process and fault layer —
    // crash lifecycle, measurement gates on the cached SNRs, beacon
    // gauntlet, silence detection and spatial re-scan — byte for byte.
    use acorn_events::{CityScenario, DriftSpec};
    use acorn_phy::{GoodputTable, LinkQualityEstimator};
    use acorn_sim::scenario::city_grid;
    use acorn_traces::AssociationDurations;
    use std::sync::Arc;

    let seed = 7;
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = SessionGenerator {
        arrival_rate_per_s: 1.0 / 20.0,
        durations: AssociationDurations::default(),
    }
    .generate(&mut rng, 3600.0);
    let sc = CityScenario {
        wlan: city_grid(2, 2, sessions.len().max(1), seed),
        sessions,
        horizon_s: 3600.0,
        reallocation_period_s: 300.0,
        restarts: 2,
        candidate_radius_m: 120.0,
        adapt_widths: true,
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: Some(heavy_faults(seed)),
        seed,
        record_log: false,
    };
    let table = GoodputTable::build(LinkQualityEstimator::default(), -12.0, 48.0, 0.25);
    let ctl = AcornController::with_table(AcornConfig::default(), Arc::new(table));
    let r = sc.run(&ctl);
    let res = r.resilience.expect("faults were set");
    assert!(res.crashes >= 1 && res.rescans > 0 && res.parse_errors > 0);
    assert!(res.outliers_rejected > 0 && res.measurement_faults > 0);
    let fp = run_fingerprint(r.stats.events, &r.telemetry, &r.final_state, &r.realloc);
    assert_eq!(
        fp, 0x0e35011dd6007087,
        "faulty city output moved: {fp:#018x}"
    );
}
