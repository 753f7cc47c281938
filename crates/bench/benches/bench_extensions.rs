//! Criterion benches for the extension modules: IAPP rounds, scanning-
//! aware allocation, the Bianchi fixed point, and the closed churn loop.

use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
use acorn_core::iapp::{IappAgent, IappBus};
use acorn_core::model::{ClientSnr, NetworkModel};
use acorn_core::scanning::{HashSounding, ScanningModel};
use acorn_core::NullSink;
use acorn_core::{AcornConfig, AcornController};
use acorn_mac::bianchi::solve;
use acorn_sim::churn::{run_churn, ChurnConfig};
use acorn_sim::enterprise_grid;
use acorn_topology::{ApId, ChannelPlan, InterferenceGraph};
use acorn_traces::SessionGenerator;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model(n_aps: usize) -> NetworkModel {
    let cells = (0..n_aps)
        .map(|a| {
            vec![ClientSnr {
                client: a,
                snr20_db: 4.0 + (a * 7 % 28) as f64,
            }]
        })
        .collect();
    NetworkModel::new(InterferenceGraph::complete(n_aps), cells)
}

fn bench_iapp_round(c: &mut Criterion) {
    let wlan = enterprise_grid(3, 3, 50.0, 0, 1);
    let plan = ChannelPlan::full_5ghz();
    let assignments: Vec<_> = (0..9).map(|i| plan.all_assignments()[i % 18]).collect();
    let counts = vec![2usize; 9];
    c.bench_function("extensions/iapp_round_9aps", |b| {
        b.iter(|| {
            let mut agents: Vec<IappAgent> = (0..9).map(|i| IappAgent::new(ApId(i))).collect();
            let bus = IappBus::new(&wlan);
            bus.round(&mut agents, black_box(&assignments), &counts, 0.0);
            agents
        })
    });
}

fn bench_scanning_allocation(c: &mut Criterion) {
    let base = model(4);
    let plan = ChannelPlan::full_5ghz();
    c.bench_function("extensions/scanning_allocation_4aps", |b| {
        b.iter(|| {
            // Fresh model per iteration so the cache does not make the
            // bench trivially warm.
            let truth = ScanningModel::new(
                base.clone(),
                HashSounding {
                    sigma_db: 2.0,
                    seed: 3,
                },
            );
            allocate(
                black_box(&truth),
                &plan,
                &AllocationConfig::default(),
                &AllocSpec {
                    seed: 1,
                    ..AllocSpec::default()
                },
                &NullSink,
            )
        })
    });
}

fn bench_bianchi(c: &mut Criterion) {
    c.bench_function("extensions/bianchi_fixed_point_n8", |b| {
        b.iter(|| solve(black_box(8)))
    });
}

fn bench_churn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 3600.0);
    let wlan = enterprise_grid(2, 2, 50.0, sessions.len().max(1), 2);
    let ctl = AcornController::new(AcornConfig::default());
    let cfg = ChurnConfig {
        horizon_s: 3600.0,
        restarts: 2,
        ..ChurnConfig::default()
    };
    c.bench_function("extensions/churn_one_hour_4aps", |b| {
        b.iter(|| run_churn(&wlan, &ctl, black_box(&sessions), &cfg, 3))
    });
}

criterion_group!(
    benches,
    bench_iapp_round,
    bench_scanning_allocation,
    bench_bianchi,
    bench_churn
);
criterion_main!(benches);
