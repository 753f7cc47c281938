//! Criterion benches for Algorithm 1 and the beacon/candidate machinery —
//! the association half of Figs. 10 and Table 3.

use acorn_core::association::{choose_ap, choose_ap_selfish, Candidate};
use acorn_core::NullSink;
use acorn_core::{AcornConfig, AcornController};
use acorn_sim::enterprise_grid;
use acorn_topology::{ApId, ClientId};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn candidates(n: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| Candidate {
            ap: ApId(i),
            k_including_u: 1 + i % 4,
            access_share: 1.0 / (1 + i % 3) as f64,
            atd_including_u_s: 0.004 * (1 + i % 5) as f64,
            delay_u_s: 0.002,
        })
        .collect()
}

fn bench_choose(c: &mut Criterion) {
    let cands = candidates(8);
    c.bench_function("association/choose_ap_eq4_8cands", |b| {
        b.iter(|| choose_ap(black_box(&cands), &NullSink))
    });
    c.bench_function("association/choose_ap_selfish_8cands", |b| {
        b.iter(|| choose_ap_selfish(black_box(&cands), &NullSink))
    });
}

fn bench_full_association(c: &mut Criterion) {
    let wlan = enterprise_grid(3, 3, 50.0, 20, 5);
    let ctl = AcornController::new(AcornConfig::default());
    let state = {
        let mut s = ctl.new_state(&wlan, 5);
        for cl in 0..10 {
            ctl.associate(&wlan, &mut s, ClientId(cl), &NullSink);
        }
        s
    };
    c.bench_function("association/probe_and_choose_9ap_grid", |b| {
        b.iter(|| {
            let cands = ctl.candidates_for(&wlan, black_box(&state), ClientId(11));
            choose_ap(&cands, &NullSink)
        })
    });
    c.bench_function("association/beacons_9ap_grid", |b| {
        b.iter(|| ctl.beacons(&wlan, black_box(&state)))
    });
}

criterion_group!(benches, bench_choose, bench_full_association);
criterion_main!(benches);
