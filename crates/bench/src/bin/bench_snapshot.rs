//! Wall-clock snapshots of the two engines, written to the current
//! directory (the repo root when launched via `scripts/bench_snapshot.sh`):
//!
//! * `BENCH_allocation.json` — the evaluation engine on a 25-AP
//!   deployment: the O(Δ)-delta path at 1 thread and at full
//!   parallelism, plus a city grid solved whole and per component.
//! * `BENCH_baseband.json` — the baseband Monte-Carlo engine on the
//!   Fig. 3 configs (1500-byte QPSK frames, 20 MHz, coded and uncoded):
//!   packets per second, the 1/2/8-thread bit-identity check and the
//!   measured steady-state allocations per packet.
//!
//! The repository benchmark (`perfbench/`) measures each change against
//! its parent commit; its README keeps the recorded baseline.

use acorn_baseband::frame::{
    mix_seed, run_trial_with, try_run_trial, Equalization, FrameConfig, FrameWorkspace, SyncMode,
};
use acorn_baseband::ChannelModel;
use acorn_baseband::PACKET_CHUNK;
use acorn_bench::alloc_counter::allocations_during;
use acorn_bench::header;
use acorn_core::allocation::{allocate, random_initial, AllocSpec, AllocationConfig};
use acorn_core::model::{ClientSnr, NetworkModel, ThroughputModel};
use acorn_core::{AcornConfig, AcornController, NetworkState, NullSink};
use acorn_phy::{ChannelWidth, CodeRate, GoodputTable, LinkQualityEstimator, Modulation};
use acorn_sim::scenario::{city_grid, enterprise_grid};
use acorn_topology::{ApId, ChannelPlan, ClientId};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const N_AP_SIDE: usize = 5; // 5×5 grid = 25 APs
const RESTARTS: usize = 8;
const REPS: usize = 5;

#[derive(Serialize)]
struct BenchAllocation {
    n_aps: usize,
    n_clients: usize,
    restarts: usize,
    reps: usize,
    threads_parallel: usize,
    /// Best-of-reps wall-clock (s): delta engine, ACORN_THREADS=1.
    delta_sequential_s: f64,
    /// Best-of-reps wall-clock (s): delta engine, all threads.
    delta_parallel_s: f64,
    speedup_parallel_vs_sequential: f64,
    delta_total_bps: f64,
    /// Sequential and parallel delta runs are bit-identical.
    delta_bit_identical: bool,
    /// City-grid section: sharded allocation + memoized goodput table.
    city_n_aps: usize,
    city_n_clients: usize,
    /// Connected components of the city conflict graph (= districts).
    city_shards: usize,
    /// Best-of-reps wall-clock (s): unsharded delta engine, exact model.
    city_unsharded_exact_s: f64,
    /// Best-of-reps wall-clock (s): sharded engine, exact model.
    city_sharded_exact_s: f64,
    /// Best-of-reps wall-clock (s): sharded engine, memoized-table model.
    city_sharded_table_s: f64,
    city_speedup_sharded_table_vs_unsharded: f64,
    /// Sharded runs at 1 thread and full parallelism are bit-identical.
    city_sharded_bit_identical: bool,
}

/// Best-of-`REPS` wall-clock seconds for `f`.
fn time_best<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

#[derive(Serialize)]
struct BasebandConfigBench {
    label: String,
    packets: usize,
    /// Workspace engine at ACORN_THREADS=1: packets/sec.
    engine_pkt_per_s: f64,
    /// Heap allocation events per packet in the engine's steady state
    /// (workspace warm, single-threaded — exact count, not an estimate).
    engine_allocs_per_packet: f64,
    /// try_run_trial reports are bit-identical at 1, 2 and 8 threads.
    parallel_bit_identical: bool,
    /// Per-worker packet batch handed to `run_packets` (PACKET_CHUNK).
    batch_packets: usize,
    /// The `-C target-cpu` the engine binary was compiled with
    /// (`.cargo/config.toml`); lane-kernel throughput depends on it.
    target_cpu: String,
}

#[derive(Serialize)]
struct BenchBaseband {
    reps: usize,
    configs: Vec<BasebandConfigBench>,
}

/// The Fig. 3 operating point: 1500-byte QPSK at 7 dB per-subcarrier SNR
/// on a 20 MHz AWGN channel — coded (the acceptance config) and uncoded.
fn fig03_config(code_rate: Option<CodeRate>) -> FrameConfig {
    FrameConfig {
        width: ChannelWidth::Ht20,
        modulation: Modulation::Qpsk,
        code_rate,
        stbc: false,
        tx_power: 1.0,
        noise_density: 1.0,
        channel: ChannelModel::Awgn,
        packet_bytes: 1500,
        sync: SyncMode::Genie,
        equalization: Equalization::Training { symbols: 4 },
        gi: acorn_phy::GuardInterval::Long,
    }
    .with_target_snr(7.0)
}

fn bench_baseband_config(label: &str, cfg: &FrameConfig, packets: usize) -> BasebandConfigBench {
    let seed = 2010u64;
    std::env::set_var("ACORN_THREADS", "1");

    // Warm-up, then exact steady-state allocation counts for the packet
    // hot path (single-threaded, so the counter sees only this pipeline).
    // Measured over bare run_packet calls: trial-level bookkeeping (the
    // report's constellation sample) is amortized per trial, not per
    // packet, and is excluded here.
    let mut ws = FrameWorkspace::new();
    run_trial_with(cfg, 3, seed, &mut ws).expect("valid config");
    let (engine_allocs, _) = allocations_during(|| {
        for i in 0..packets {
            ws.run_packet(cfg, mix_seed(seed, i as u64))
                .expect("valid config");
        }
    });
    let (t_engine, _) =
        time_best(|| run_trial_with(cfg, packets, seed, &mut ws).expect("valid config"));

    // Determinism across thread counts, on the exact snapshot config.
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ACORN_THREADS", threads);
        reports.push(try_run_trial(cfg, packets.min(40), seed).expect("valid config"));
    }
    std::env::remove_var("ACORN_THREADS");
    let identical = reports.windows(2).all(|w| w[0] == w[1]);
    assert!(identical, "{label}: thread count changed the report");

    BasebandConfigBench {
        label: label.to_string(),
        packets,
        engine_pkt_per_s: packets as f64 / t_engine,
        engine_allocs_per_packet: engine_allocs as f64 / packets as f64,
        parallel_bit_identical: identical,
        batch_packets: PACKET_CHUNK,
        target_cpu: effective_target_cpu(),
    }
}

/// The widest SIMD tier compiled into this binary — the observable effect
/// of `.cargo/config.toml`'s `-C target-cpu=native` on the machine the
/// snapshot ran on, recorded so rows from different hosts are comparable.
fn effective_target_cpu() -> String {
    let tier = if cfg!(target_feature = "avx512bw") {
        "avx512bw"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "baseline"
    };
    format!("native ({tier})")
}

fn bench_baseband() -> BenchBaseband {
    header("Baseband-engine snapshot: Fig. 3 QPSK frames");
    let configs = vec![
        bench_baseband_config(
            "qpsk-r12-20mhz-1500B",
            &fig03_config(Some(CodeRate::R12)),
            60,
        ),
        bench_baseband_config("qpsk-uncoded-20mhz-1500B", &fig03_config(None), 150),
    ];
    for c in &configs {
        println!(
            "{}: engine {:.0} pkt/s, {:.2} allocs/pkt steady state, parallel identical: {}",
            c.label, c.engine_pkt_per_s, c.engine_allocs_per_packet, c.parallel_bit_identical,
        );
    }
    BenchBaseband {
        reps: REPS,
        configs,
    }
}

fn main() {
    let baseband = bench_baseband();
    match serde_json::to_string_pretty(&baseband) {
        Ok(s) => {
            std::fs::write("BENCH_baseband.json", s).expect("write BENCH_baseband.json");
            println!("[saved BENCH_baseband.json]");
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }

    header("Evaluation-engine snapshot: 25-AP allocate with restarts");
    let n_clients = 60;
    let wlan = enterprise_grid(N_AP_SIDE, N_AP_SIDE, 45.0, n_clients, 77);
    let plan = ChannelPlan::full_5ghz();
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });
    let mut state = ctl.new_state(&wlan, 1);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c), &NullSink);
    }
    let model = ctl.build_model(&wlan, &state);
    assert_eq!(model.n_aps(), N_AP_SIDE * N_AP_SIDE);
    let cfg = AllocationConfig::default();
    let seed = 2010u64;
    let hedge = AllocSpec {
        restarts: RESTARTS,
        seed,
        ..AllocSpec::default()
    };

    std::env::set_var("ACORN_THREADS", "1");
    let (t_seq, r_seq) = time_best(|| allocate(&model, &plan, &cfg, &hedge, &NullSink));
    println!(
        "delta engine, 1 thread:               {t_seq:.3} s  (Y = {:.1} Mb/s)",
        r_seq.total_bps / 1e6
    );

    // Measure the parallel path at ≥4 workers even on small machines
    // (bit-identity guarantees the answer is the same either way).
    std::env::remove_var("ACORN_THREADS");
    let threads = acorn_core::par::max_threads().max(4);
    std::env::set_var("ACORN_THREADS", threads.to_string());
    let (t_par, r_par) = time_best(|| allocate(&model, &plan, &cfg, &hedge, &NullSink));
    std::env::remove_var("ACORN_THREADS");
    println!(
        "delta engine, {threads} threads:              {t_par:.3} s  (Y = {:.1} Mb/s)",
        r_par.total_bps / 1e6
    );

    let identical = r_seq.assignments == r_par.assignments
        && r_seq.total_bps.to_bits() == r_par.total_bps.to_bits();
    assert!(
        identical,
        "sequential and parallel runs must be bit-identical"
    );

    header("Evaluation-engine snapshot: city grid, sharded + memoized table");
    let city_districts = 4usize;
    let city_n_clients = 432;
    let city_wlan = city_grid(city_districts, 3, city_n_clients, 77);
    let city_n_aps = city_wlan.aps.len();
    // Nearest-AP association: pure geometry, fine for a timing model.
    let assoc: Vec<Option<ApId>> = city_wlan
        .clients
        .iter()
        .map(|cl| {
            (0..city_n_aps)
                .min_by(|&a, &b| {
                    let da = city_wlan.aps[a].pos.distance(&cl.pos);
                    let db = city_wlan.aps[b].pos.distance(&cl.pos);
                    da.partial_cmp(&db).expect("finite distances")
                })
                .map(ApId)
        })
        .collect();
    let city_graph = city_wlan.interference_graph(&assoc);
    let city_shards = city_graph.connected_components().len();
    let cells: Vec<Vec<ClientSnr>> = (0..city_n_aps)
        .map(|ap| {
            assoc
                .iter()
                .enumerate()
                .filter(|(_, a)| **a == Some(ApId(ap)))
                .map(|(c, _)| ClientSnr {
                    client: c,
                    snr20_db: city_wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20),
                })
                .collect()
        })
        .collect();
    let payload = AcornConfig::default().payload_bytes;
    let city_exact = NetworkModel::with_config(
        city_graph.clone(),
        cells.clone(),
        LinkQualityEstimator::default(),
        payload,
    );
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    let city_table = NetworkModel::with_table(city_graph, cells, table, payload);
    let city_initial = random_initial(&plan, city_n_aps, seed);
    // The per-component path reallocates a state in place; every run
    // starts from the same one.
    let city_state = NetworkState {
        operating_width: city_initial.iter().map(|a| a.width()).collect(),
        assignments: city_initial,
        assoc,
    };
    let per_component = |model: &NetworkModel| {
        let mut state = city_state.clone();
        ctl.reallocate(model, &mut state, RESTARTS, seed, true, &NullSink)
    };

    let (t_city_unsharded, r_unsharded) =
        time_best(|| allocate(&city_exact, &plan, &cfg, &hedge, &NullSink));
    println!(
        "unsharded delta engine, exact model:  {t_city_unsharded:.3} s  (Y = {:.1} Mb/s)",
        r_unsharded.total_bps / 1e6
    );
    let (t_city_sharded, r_sharded) = time_best(|| per_component(&city_exact));
    println!(
        "sharded ({city_shards} shards), exact model:      {t_city_sharded:.3} s  (Y = {:.1} Mb/s)",
        r_sharded.total_bps / 1e6
    );
    std::env::set_var("ACORN_THREADS", "1");
    let (t_city_table, r_table_seq) = time_best(|| per_component(&city_table));
    std::env::set_var("ACORN_THREADS", threads.to_string());
    let (t_city_table_par, r_table_par) = time_best(|| per_component(&city_table));
    std::env::remove_var("ACORN_THREADS");
    let city_t_table_best = t_city_table.min(t_city_table_par);
    println!(
        "sharded + memoized table:             {city_t_table_best:.3} s  (Y = {:.1} Mb/s)",
        r_table_par.total_bps / 1e6
    );
    let city_identical = r_table_seq.assignments == r_table_par.assignments
        && r_table_seq.total_bps.to_bits() == r_table_par.total_bps.to_bits();
    assert!(
        city_identical,
        "sharded runs must be bit-identical across thread counts"
    );
    println!(
        "sharded+table vs unsharded exact: {:.2}x",
        t_city_unsharded / city_t_table_best
    );

    let record = BenchAllocation {
        n_aps: model.n_aps(),
        n_clients,
        restarts: RESTARTS,
        reps: REPS,
        threads_parallel: threads,
        delta_sequential_s: t_seq,
        delta_parallel_s: t_par,
        speedup_parallel_vs_sequential: t_seq / t_par,
        delta_total_bps: r_par.total_bps,
        delta_bit_identical: identical,
        city_n_aps,
        city_n_clients,
        city_shards,
        city_unsharded_exact_s: t_city_unsharded,
        city_sharded_exact_s: t_city_sharded,
        city_sharded_table_s: city_t_table_best,
        city_speedup_sharded_table_vs_unsharded: t_city_unsharded / city_t_table_best,
        city_sharded_bit_identical: city_identical,
    };
    println!();
    println!(
        "parallel vs sequential: {:.2}x ({} threads)",
        record.speedup_parallel_vs_sequential, threads
    );
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            std::fs::write("BENCH_allocation.json", s).expect("write BENCH_allocation.json");
            println!("[saved BENCH_allocation.json]");
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
