//! The ACORN repository benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exact|city|soak|ctrlplane|baseband|all> \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! One process measures one workload at `ACORN_THREADS=1`: it repeats
//! set-up and run phase until `--seconds` have passed, checks every
//! repetition's simulated outputs, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! the five workloads one after another, each in its own process.
//! See `perfbench/README.md` for the workloads, metrics and layers.

mod probe;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use trace::{Summary, Tracer};
use workloads::{Rep, Workload};

/// The seed whose output fingerprints are recorded with the benchmark.
const DEFAULT_SEED: u64 = 42;
/// A repetition that takes longer than this counts as failed.
const REP_TIMEOUT_S: f64 = 60.0;
/// The whole process gives up, without a result, after this long.
const PROCESS_DEADLINE: Duration = Duration::from_secs(170);
/// Named spans must cover at least this share of a traced repetition.
const MIN_COVERAGE: f64 = 0.95;

/// Metrics of a run without tracing, in output order.
const END_TO_END: [(&str, &str); 3] = [
    ("rate_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, in output order. A layer that does no work on
/// a workload reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("events.kernel.self_s", "s"),
    ("events.kernel.ns_per_event", "ns"),
    ("events.dispatched", "count"),
    ("events.arrive.count", "count"),
    ("events.arrive.self_s", "s"),
    ("events.arrive.p50_us", "us"),
    ("events.arrive.tail_us", "us"),
    ("events.depart.count", "count"),
    ("events.depart.self_s", "s"),
    ("events.depart.p50_us", "us"),
    ("events.depart.tail_us", "us"),
    ("events.realloc.count", "count"),
    ("events.realloc.self_s", "s"),
    ("events.realloc.p50_us", "us"),
    ("events.realloc.tail_us", "us"),
    ("events.mobility.count", "count"),
    ("events.mobility.self_s", "s"),
    ("events.drift.count", "count"),
    ("events.drift.self_s", "s"),
    ("events.control_round.count", "count"),
    ("events.control_round.self_s", "s"),
    ("events.control_round.p50_us", "us"),
    ("events.control_round.tail_us", "us"),
    ("events.deliver_msg.count", "count"),
    ("events.deliver_msg.self_s", "s"),
    ("events.ap_fault.count", "count"),
    ("events.ap_fault.self_s", "s"),
    ("events.workload_tick.count", "count"),
    ("events.workload_tick.self_s", "s"),
    ("events.workload_tick.p50_us", "us"),
    ("events.workload_tick.tail_us", "us"),
    ("events.probe.count", "count"),
    ("events.probe.self_s", "s"),
    ("events.watchdog.count", "count"),
    ("events.watchdog.self_s", "s"),
    ("run.build_s", "s"),
    ("run.report_s", "s"),
    ("ctrlplane.build_s", "s"),
    ("ctrlplane.run_s", "s"),
    ("baseband.stage.encode.self_s", "s"),
    ("baseband.stage.streams.self_s", "s"),
    ("baseband.stage.channel.self_s", "s"),
    ("baseband.stage.sync.self_s", "s"),
    ("baseband.stage.receive.self_s", "s"),
    ("baseband.stage.decode.self_s", "s"),
    ("baseband.packet.self_s", "s"),
    ("setup.topology_s", "s"),
    ("setup.trace_s", "s"),
    ("setup.table_s", "s"),
    ("assoc.candidates_per_choice", "ratio"),
    ("alloc.runs", "count"),
    ("alloc.iterations", "count"),
    ("alloc.switches", "count"),
    ("alloc.shards", "count"),
    ("model.cell_base_rebuilds", "count"),
    ("phy.table.hit_ratio", "ratio"),
    ("phy.table.misses", "count"),
    ("faults.frames_sent", "count"),
    ("faults.parse_errors", "count"),
    ("ctrl.msgs.sent", "count"),
    ("ctrl.msgs.acked", "count"),
    ("ctrl.msgs.retransmitted", "count"),
    ("ctrl.msgs.deduped", "count"),
    ("watchdog.checks", "count"),
    ("watchdog.graph_checks", "count"),
    ("baseband.sync_failures", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <exact|city|soak|ctrlplane|baseband|all> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // One evaluation-engine worker: on a 2-vCPU host two workers made city
    // and soak slower and noisier (see README.md).
    std::env::set_var("ACORN_THREADS", "1");
    let code = match Workload::parse(&args.workload) {
        Some(w) => {
            // A run that hangs must still end, without printing a result.
            // The guard thread is never joined: the process exits with it
            // or before it wakes.
            std::thread::spawn(|| {
                std::thread::sleep(PROCESS_DEADLINE);
                eprintln!("perfbench: no result after {PROCESS_DEADLINE:?}; giving up");
                std::process::exit(3);
            });
            run_one(w, &args)
        }
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// A repetition that finished, or the reason it did not.
type Attempt = Result<Rep, String>;

fn attempt(w: Workload, seed: u64, tracer: Option<&Tracer>, first: bool) -> Attempt {
    let t0 = Instant::now();
    let rep = catch_unwind(AssertUnwindSafe(|| w.rep(seed, tracer, first))).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })?;
    let took = t0.elapsed().as_secs_f64();
    if took > REP_TIMEOUT_S {
        return Err(format!("timed out: {took:.1} s > {REP_TIMEOUT_S} s"));
    }
    Ok(rep)
}

/// Why a finished repetition fails its output checks, if it does.
fn check(w: Workload, seed: u64, rep: &Rep, reference: Option<u64>) -> Vec<String> {
    let mut problems = rep.problems.clone();
    if let Some(fp) = reference {
        if rep.fingerprint != fp {
            problems.push(format!(
                "fingerprint {:#018x} differs from this process's first repetition {fp:#018x}",
                rep.fingerprint
            ));
        }
    }
    if seed == DEFAULT_SEED && rep.fingerprint != w.expected_fingerprint() {
        problems.push(format!(
            "fingerprint {:#018x} differs from the recorded {:#018x}",
            rep.fingerprint,
            w.expected_fingerprint()
        ));
    }
    problems
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn run_one(w: Workload, args: &Args) -> i32 {
    let seed = args.seed;
    println!(
        "perfbench workload={} seed={seed} seconds={} trace={}",
        w.name(),
        args.seconds,
        args.trace as u8
    );
    println!("host {}", host_facts());
    println!("params {}", w.params());

    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut untraced: Vec<Attempt> = Vec::new();
    let mut traced: Vec<(Attempt, Tracer)> = Vec::new();
    // The once-per-process checks do not count against the budget.
    let mut checks = Duration::ZERO;
    loop {
        let round = Instant::now();
        let a = attempt(w, seed, None, untraced.is_empty());
        let round_checks = a
            .as_ref()
            .map_or(Duration::ZERO, |rep| Duration::from_secs_f64(rep.check_s));
        checks += round_checks;
        untraced.push(a);
        if args.trace {
            let tracer = Tracer::new(epoch);
            traced.push((attempt(w, seed, Some(&tracer), false), tracer));
        }
        // Stop where ending now misses the budget by less than another
        // round would overrun it, so a run measures about `--seconds`.
        let next = round.elapsed().saturating_sub(round_checks);
        if epoch.elapsed() + next / 2 >= budget + checks {
            break;
        }
    }

    // Every repetition must reproduce the first one bit for bit, traced or
    // not, and at the default seed the recorded fingerprint.
    let reference = untraced
        .iter()
        .chain(traced.iter().map(|(a, _)| a))
        .find_map(|a| a.as_ref().ok().map(|r| r.fingerprint));
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut report =
        |label: &str, a: &Attempt, extra: Vec<String>| -> bool {
            attempted += 1;
            let mut problems = match a {
                Ok(rep) => check(w, seed, rep, reference),
                Err(e) => vec![e.clone()],
            };
            problems.extend(extra);
            match a {
                Ok(rep) => println!(
                "{label} {attempted}: setup {:.4} s, run {:.4} s, {} {}, fingerprint {:#018x}, {}",
                rep.setup_s,
                rep.run_s,
                rep.work,
                if w == Workload::Baseband { "packets" } else { "events" },
                rep.fingerprint,
                if problems.is_empty() { "ok" } else { "FAILED" }
            ),
                Err(_) => println!("{label} {attempted}: FAILED"),
            }
            for p in &problems {
                println!("  problem: {p}");
            }
            if !problems.is_empty() {
                failed += 1;
            }
            problems.is_empty()
        };
    for a in &untraced {
        report("rep", a, Vec::new());
    }
    let mut summaries: Vec<(Summary, &Rep)> = Vec::new();
    let mut last_spans = Vec::new();
    for (a, tracer) in &traced {
        let spans = tracer.take();
        let summary = trace::summarize(&spans);
        let mut extra = summary.problems.clone();
        if a.is_ok() && summary.coverage < MIN_COVERAGE {
            extra.push(format!(
                "named spans cover {:.3} of the traced repetition, below {MIN_COVERAGE}",
                summary.coverage
            ));
        }
        if report("traced rep", a, extra) {
            if let Ok(rep) = a {
                summaries.push((summary, rep));
                last_spans = spans;
            }
        }
    }
    if args.trace {
        let (label, problem) = fingerprint_self_test(w, seed, reference);
        println!("fingerprint self-test: {label}");
        if let Some(p) = problem {
            println!("  problem: {p}");
            failed = attempted;
        }
    }

    let ok_untraced: Vec<&Rep> = untraced.iter().filter_map(|a| a.as_ref().ok()).collect();
    let metrics = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{seed}.tsv", w.name()));
        let header = [
            format!("workload {} seed {seed}", w.name()),
            format!("host {}", host_facts()),
            format!("params {}", w.params()),
        ];
        match trace::write_spans(&path, &header, &last_spans) {
            Ok(()) => println!("spans: {} written to {}", last_spans.len(), path.display()),
            Err(e) => {
                println!("  problem: cannot write spans to {}: {e}", path.display());
                failed = attempted;
            }
        }
        per_layer_metrics(&summaries, &ok_untraced)
    } else {
        end_to_end_metrics(w, &ok_untraced)
    };
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("failed_share = {failed_share} ({failed} of {attempted})");
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.2.is_finite());
    println!(
        "summary\tworkload={}\trate_name={}\t{}\tfailed_share={failed_share}\tattempted={attempted}\tfailed={failed}\tcorrect={correct}",
        w.name(),
        w.rate_name(),
        metrics
            .iter()
            .map(|(n, _, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join("\t")
    );
    println!("{}", result_json(correct, attempted, failed, &metrics));
    0
}

/// The end-to-end metrics over the untraced repetitions, at the reference
/// host speed.
fn end_to_end_metrics(w: Workload, reps: &[&Rep]) -> Vec<(&'static str, &'static str, f64)> {
    // Other guests on a shared host slow it by up to half, for seconds to
    // minutes at a time, which no statistic within one run can undo. So
    // each repetition's host seconds are divided by the slowdown the probes
    // before its pieces read (see probe.rs).
    let slowdown = |r: &Rep| r.probe_s.map_or(f64::NAN, probe::slowdown);
    let host_rates: Vec<f64> = reps.iter().map(|r| r.work as f64 / r.run_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .zip(&host_rates)
        .map(|(r, x)| x * slowdown(r))
        .collect();
    let rate = median(rates);
    let setup = median(reps.iter().map(|r| r.setup_s / slowdown(r)).collect());
    // The first repetition's peak is one set-up and run in a fresh process;
    // what later repetitions add depends on how the allocator reuses freed
    // memory, not on the program.
    let rss_mb = reps.first().map_or(0.0, |r| r.peak_rss_kb as f64 / 1024.0);
    println!(
        "{} = {rate} 1/s (median of {} repetitions at reference speed; in host seconds the \
         median repetition ran at {} 1/s and set up in {} s; its probes took {} times the \
         reference)",
        w.rate_name(),
        reps.len(),
        median(host_rates),
        median(reps.iter().map(|r| r.setup_s).collect()),
        median(
            reps.iter()
                .map(|r| r.probe_s.map_or(f64::NAN, |p| p / probe::REFERENCE_S))
                .collect()
        ),
    );
    println!("setup_s = {setup} s (median at reference speed)");
    println!("peak_rss_mb = {rss_mb} MB");
    let values = [rate, setup, rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The per-layer metrics: medians over the traced repetitions, with the
/// tracing overhead measured against the untraced ones.
fn per_layer_metrics(
    traced: &[(Summary, &Rep)],
    untraced: &[&Rep],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut tails: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (s, rep) in traced {
        for (k, v) in &s.metrics {
            values.entry(k.clone()).or_default().push(*v);
        }
        for &(k, v) in &rep.counts {
            values.entry(k.to_string()).or_default().push(v);
        }
        values
            .entry("trace.coverage".into())
            .or_default()
            .push(s.coverage);
        tails.extend(s.tails.clone());
    }
    // Fastest against fastest: traced repetitions take no probes, and the
    // host only ever slows a repetition down.
    let fastest = |xs: Vec<f64>| xs.into_iter().fold(f64::INFINITY, f64::min);
    let traced_run = fastest(traced.iter().map(|(_, r)| r.run_s).collect());
    let untraced_run = fastest(untraced.iter().map(|r| r.run_s).collect());
    if traced_run.is_finite() && untraced_run.is_finite() {
        values.insert(
            "trace.overhead".into(),
            vec![traced_run / untraced_run - 1.0],
        );
    }
    for (k, v) in &values {
        if !PER_LAYER.iter().any(|(name, _)| name == k) {
            println!("  (also) {k} = {}", median(v.clone()));
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).map_or(0.0, |v| median(v.clone()));
            match tails.get(name) {
                Some((q, n)) => println!("{name} = {v} {unit} (q={q}, n={n})"),
                None => println!("{name} = {v} {unit}"),
            }
            (name, unit, v)
        })
        .collect()
}

/// Shows that the recorded-fingerprint check can fail: the outputs of a
/// seed other than the default must not match the recorded fingerprint.
fn fingerprint_self_test(
    w: Workload,
    seed: u64,
    reference: Option<u64>,
) -> (String, Option<String>) {
    let expected = w.expected_fingerprint();
    let (other_seed, fp) = if seed == DEFAULT_SEED {
        let other = DEFAULT_SEED + 1;
        match attempt(w, other, None, false) {
            Ok(rep) => (other, rep.fingerprint),
            Err(e) => return (format!("seed {other}: {e}"), Some(e)),
        }
    } else {
        match reference {
            Some(fp) => (seed, fp),
            None => return ("no repetition finished".into(), None),
        }
    };
    if fp == expected {
        let msg = format!("seed {other_seed} reproduces the recorded fingerprint {expected:#018x}");
        (msg.clone(), Some(msg))
    } else {
        (
            format!(
                "seed {other_seed} gives {fp:#018x}, the recorded check against {expected:#018x} fails as it should"
            ),
            None,
        )
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the checkout is at, read from its `.git` directory when it
/// has one (a plain checkout has none).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> String {
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = flags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": {}, \"rustc\": {}, \"rustflags\": {}, \"target_cpu\": {}, \
         \"avx512bw\": {}, \"avx2\": {}, \"available_parallelism\": {parallelism}, \
         \"acorn_threads\": {}, \"acorn_threads_why\": {}}}",
        json_str(&git_rev()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(flags),
        json_str(target_cpu),
        cfg!(target_feature = "avx512bw"),
        cfg!(target_feature = "avx2"),
        json_str(&std::env::var("ACORN_THREADS").unwrap_or_default()),
        json_str(
            "pinned to 1: on a 2-vCPU host, 2 threads made city take 4.6-5.2 s \
             (3.9-4.3 s at 1) and soak 3.2-3.4 s (2.5-2.9 s at 1), slower and noisier"
        ),
    )
}

/// Runs every workload in its own process and prints one table.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut rows: Vec<BTreeMap<String, String>> = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let row = stdout
            .lines()
            .find_map(|l| l.strip_prefix("summary\t"))
            .map(|l| {
                l.split('\t')
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect()
            });
        match (out.status.success(), row) {
            (true, Some(row)) => rows.push(row),
            _ => {
                eprintln!("perfbench: workload {} gave no result", w.name());
                return 1;
            }
        }
    }
    println!();
    let mut correct = true;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for row in &rows {
        let get = |k: &str| row.get(k).map(String::as_str).unwrap_or("");
        let w = get("workload");
        correct &= get("correct") == "true";
        attempted += get("attempted").parse::<usize>().unwrap_or(0);
        failed += get("failed").parse::<usize>().unwrap_or(0);
        if !args.trace {
            println!(
                "{w:<10} {} = {} 1/s, setup_s = {} s, peak_rss_mb = {} MB, failed_share = {}",
                get("rate_name"),
                get("rate_per_s"),
                get("setup_s"),
                get("peak_rss_mb"),
                get("failed_share")
            );
        }
        for &(name, unit) in &names {
            let v = get(name).parse::<f64>().unwrap_or(0.0);
            metrics.push((format!("{w}.{name}"), unit, v));
        }
    }
    let metrics: Vec<(&str, &str, f64)> = metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), *u, *v))
        .collect();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    0
}
