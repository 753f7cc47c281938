//! Criterion benches for the software baseband — the Monte-Carlo engine
//! behind Figs. 1–4 (FFT, Viterbi, the end-to-end frame pipeline), plus
//! the workspace hot path the zero-allocation engine runs on.

use acorn_baseband::convcode::Codec;
use acorn_baseband::cplx::Cplx;
use acorn_baseband::fft::fft;
use acorn_baseband::frame::{mix_seed, run_trial, Equalization, FrameConfig, FrameWorkspace};
use acorn_baseband::psd::welch_psd;
use acorn_phy::{ChannelWidth, CodeRate};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_fft(c: &mut Criterion) {
    for n in [64usize, 128] {
        let input: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 1.1).cos()))
            .collect();
        c.bench_function(&format!("baseband/fft_{n}"), |b| {
            b.iter(|| {
                let mut buf = input.clone();
                fft(black_box(&mut buf));
                buf
            })
        });
    }
}

fn bench_viterbi(c: &mut Criterion) {
    let codec = Codec::new(CodeRate::R34);
    let info: Vec<bool> = (0..1200).map(|i| i % 3 == 0).collect();
    let coded = codec.encode(&info);
    // The measured path goes through the `_into` twin with reused scratch,
    // exactly like the frame pipeline's decode stage — steady state is
    // allocation-free.
    let (mut classes, mut survivor, mut out) = (Vec::new(), Vec::new(), Vec::new());
    c.bench_function("baseband/viterbi_1200b_r34", |b| {
        b.iter(|| {
            codec.decode_into(
                black_box(&coded),
                info.len(),
                &mut classes,
                &mut survivor,
                &mut out,
            );
            out.len()
        })
    });
}

fn bench_frame_pipeline(c: &mut Criterion) {
    for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
        let cfg = FrameConfig {
            packet_bytes: 500,
            equalization: Equalization::Genie,
            ..FrameConfig::baseline(w)
        }
        .with_target_snr(10.0);
        c.bench_function(&format!("baseband/frame_500B_{w:?}"), |b| {
            b.iter(|| run_trial(black_box(&cfg), 1, 7))
        });
    }
}

/// The steady-state hot path: one packet through a warm [`FrameWorkspace`]
/// — no allocation, no plan rebuild, exactly what each parallel worker
/// does per packet inside `try_run_trial`.
fn bench_workspace_packet(c: &mut Criterion) {
    let cfg = FrameConfig {
        packet_bytes: 1500,
        code_rate: Some(CodeRate::R12),
        equalization: Equalization::Genie,
        ..FrameConfig::baseline(ChannelWidth::Ht20)
    }
    .with_target_snr(7.0);
    let mut ws = FrameWorkspace::new();
    ws.run_packet(&cfg, mix_seed(7, 0)).unwrap();
    let mut i = 0u64;
    c.bench_function("baseband/workspace_packet_1500B_qpsk_r12", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            ws.run_packet(black_box(&cfg), mix_seed(7, i)).unwrap()
        })
    });
}

fn bench_psd(c: &mut Criterion) {
    let signal: Vec<Cplx> = (0..16384).map(|i| Cplx::cis(0.1 * i as f64)).collect();
    c.bench_function("baseband/welch_psd_16k", |b| {
        b.iter(|| welch_psd(black_box(&signal), 256))
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_viterbi,
    bench_frame_pipeline,
    bench_workspace_packet,
    bench_psd
);
criterion_main!(benches);
