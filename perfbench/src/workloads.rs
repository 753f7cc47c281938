//! The five workloads. Each builds its inputs from the seed alone, calls
//! the program's public items, and fingerprints what the program simulated.
//!
//! Every workload is a batch run: it replays a fixed virtual-time input as
//! fast as it can. One repetition is set-up (deployment, session trace,
//! goodput table, plane construction or workspace warm-up) followed by the
//! run phase, timed in pieces. `exact`, `city` and `soak` are rebuilt from
//! the same public processes their scenario's `run` registers, in the same
//! order, and run in stretches of virtual time; under a tracer each process
//! is wrapped in a timing process. `baseband` runs one `run_packets` batch
//! per configuration, or, under a tracer, packet by packet through
//! `run_packet_obs` with a wall-clock sink. `ctrlplane` builds its processes
//! inside `DistributedPlane::new`, so it is split into build and run only.

use crate::probe;
use crate::trace::{timed, StageSink, Timed, Tracer, ROOT, RUN};
use acorn_baseband::{
    mix_seed, ChannelModel, Equalization, FrameConfig, FrameWorkspace, PacketOutcome, SyncMode,
};
use acorn_core::{AcornConfig, AcornController, NetworkState};
use acorn_ctrlplane::{DistributedPlane, PlaneConfig};
use acorn_events::{
    AcornEvent, AcornWorld, CityDriftProcess, CityFaultProcess, CityReallocationTimer, CityReport,
    CityScenario, CitySessionProcess, CityWorld, CompositeReport, CompositeScenario, DriftProcess,
    DriftSpec, FaultPlan, MobilityProcess, MobilitySpec, Process, ReallocRecord, ReallocationTimer,
    RunStats, SeedPolicy, SessionProcess, Simulation, TelemetrySnapshot,
};
use acorn_obs::names;
use acorn_phy::{ChannelWidth, CodeRate, GoodputTable, LinkQualityEstimator, Modulation};
use acorn_sim::scenario::{city_grid, enterprise_grid};
use acorn_soak::{
    InvariantWatchdog, SoakProbe, SoakReport, SoakScenario, WatchdogSpec, WorkloadGen, WorkloadSpec,
};
use acorn_topology::{ClientId, Point, Trajectory};
use acorn_traces::{AssociationDurations, Session, SessionGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::{Debug, Write as _};
use std::sync::Arc;
use std::time::Instant;

// `exact`: the 5x5 enterprise grid under the exact composite. The horizon
// and re-allocation period are short so one deployment takes a fraction of
// a second and Algorithm 2 still fires twice. A repetition replays several
// independent deployments: one deployment's rate depends on its geometry
// by about 10%, which would otherwise dominate the spread across seeds.
const EXACT_SIDE: usize = 5;
const EXACT_RUNS: u64 = 8;
const EXACT_HORIZON_S: f64 = 300.0;
const EXACT_PERIOD_S: f64 = 100.0;
const EXACT_DRIFT_PERIOD_S: f64 = 60.0;
/// Set-ups per repetition: one set-up takes tens of microseconds.
const EXACT_SETUPS: usize = 32;

// `city`: 25x25 districts of 4x4 APs (10 000 APs) over one hour.
const CITY_DISTRICTS: usize = 25;
const CITY_APS_PER_SIDE: usize = 4;
const CITY_HORIZON_S: f64 = 3600.0;
const CITY_PERIOD_S: f64 = 1800.0;

// `soak`: the steady-fault chaos soak, 64 APs and 400 clients for three
// virtual days.
const SOAK_HORIZON_S: f64 = 3.0 * 86_400.0;
const SOAK_CLIENTS: usize = 400;

// `ctrlplane`: 8x8 districts of 3x3 APs (576 APs), one client per AP, 40
// epochs on a control wire with 30% loss and 5% corruption.
const CTRL_DISTRICTS: usize = 8;
const CTRL_APS_PER_SIDE: usize = 3;
const CTRL_EPOCHS: u64 = 40;

// `baseband`: packets per engine configuration per repetition, and
// workspace warm-ups per repetition (one takes a few milliseconds).
const BASEBAND_PACKETS: usize = 64;
const BASEBAND_SETUPS: usize = 8;

/// Sessions arrive at `n_aps / 300` per second, one per five minutes per
/// AP, with CRAWDAD-fit durations.
const ARRIVALS_PER_AP_PER_S: f64 = 1.0 / 300.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exact,
    City,
    Soak,
    Ctrlplane,
    Baseband,
}

/// What one repetition measured and produced.
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds of the run phase: the sum of its pieces (stretches of
    /// virtual time, world build and report, packet batches), without the
    /// host-speed probes taken between them.
    pub run_s: f64,
    /// Simulated events dispatched, or packets through Tx -> channel -> Rx.
    pub work: u64,
    pub fingerprint: u64,
    /// The process's `VmHWM` right after the run phase, in kB.
    pub peak_rss_kb: u64,
    /// Work counters read from the run's own telemetry.
    pub counts: Vec<(&'static str, f64)>,
    /// Invariant violations found in the outputs.
    pub problems: Vec<String>,
    /// Host seconds spent on the once-per-process checks; they are not part
    /// of the measured time.
    pub check_s: f64,
    /// The mean of the host-speed probes taken before the pieces of an
    /// untraced run phase.
    pub probe_s: Option<f64>,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Exact,
        Workload::City,
        Workload::Soak,
        Workload::Ctrlplane,
        Workload::Baseband,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exact => "exact",
            Workload::City => "city",
            Workload::Soak => "soak",
            Workload::Ctrlplane => "ctrlplane",
            Workload::Baseband => "baseband",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The name of the workload's end-to-end rate.
    pub fn rate_name(self) -> &'static str {
        match self {
            Workload::Baseband => "packets_per_s",
            _ => "events_per_s",
        }
    }

    /// The fingerprint of the simulated outputs at the default seed,
    /// recorded with the benchmark.
    pub fn expected_fingerprint(self) -> u64 {
        match self {
            Workload::Exact => 0xc8d9_df60_29b0_c15f,
            Workload::City => 0x5bfd_03ec_caad_4835,
            Workload::Soak => 0xb0a8_809c_9aa7_f0b8,
            Workload::Ctrlplane => 0x6cc7_3b4e_94e6_7e2a,
            Workload::Baseband => 0x27e0_1e39_a909_ed4d,
        }
    }

    /// The workload's parameters, as a JSON object.
    pub fn params(self) -> String {
        match self {
            Workload::Exact => format!(
                "{{\"scenario\": \"CompositeScenario\", \"grid\": \"{EXACT_SIDE}x{EXACT_SIDE} enterprise, 50 m\", \
                 \"arrivals_per_s\": {}, \"horizon_s\": {EXACT_HORIZON_S}, \"realloc_period_s\": {EXACT_PERIOD_S}, \
                 \"restarts\": 2, \"mobility_period_s\": 60, \"drift_period_s\": {EXACT_DRIFT_PERIOD_S}}}",
                (EXACT_SIDE * EXACT_SIDE) as f64 * ARRIVALS_PER_AP_PER_S
            ),
            Workload::City => format!(
                "{{\"scenario\": \"CityScenario\", \"grid\": \"city_grid({CITY_DISTRICTS}, {CITY_APS_PER_SIDE})\", \
                 \"aps\": {}, \"arrivals_per_s\": {}, \"horizon_s\": {CITY_HORIZON_S}, \
                 \"realloc_period_s\": {CITY_PERIOD_S}, \"restarts\": 2, \"candidate_radius_m\": 120, \
                 \"drift_period_s\": 600, \"table\": \"GoodputTable::new\"}}",
                city_aps(),
                city_aps() as f64 * ARRIVALS_PER_AP_PER_S
            ),
            Workload::Soak => format!(
                "{{\"scenario\": \"SoakScenario\", \"grid\": \"city_grid(4, 2)\", \"clients\": {SOAK_CLIENTS}, \
                 \"horizon_s\": {SOAK_HORIZON_S}, \"faults\": \"steady\", \"watchdog_period_s\": 300, \
                 \"probe_period_s\": 60, \"benign_twin\": false, \"table\": \"GoodputTable::new\"}}"
            ),
            Workload::Ctrlplane => format!(
                "{{\"scenario\": \"DistributedPlane\", \"grid\": \"city_grid({CTRL_DISTRICTS}, {CTRL_APS_PER_SIDE})\", \
                 \"clients\": {}, \"epochs\": {CTRL_EPOCHS}, \"loss\": 0.3, \"corruption\": 0.05, \
                 \"table\": \"GoodputTable::build(-12, 48, 0.25)\"}}",
                ctrl_aps()
            ),
            Workload::Baseband => format!(
                "{{\"engine\": \"FrameWorkspace::run_packets\", \"configs\": \"QPSK 1500 B, genie sync, \
                 AWGN, 7 dB, {{R1/2, uncoded}} x {{20, 40}} MHz\", \"packets_per_config\": {BASEBAND_PACKETS}}}"
            ),
        }
    }

    /// One repetition: set-up, then the run phase. `first` adds the
    /// invariant checks that run once per process, after the measured part.
    pub fn rep(self, seed: u64, tracer: Option<&Tracer>, first: bool) -> Rep {
        probe::drain_mean();
        let mut rep = match self {
            Workload::Exact => exact(seed, tracer, first),
            Workload::City => city(seed, tracer, first),
            Workload::Soak => soak(seed, tracer, first),
            Workload::Ctrlplane => ctrlplane(seed, tracer, first),
            Workload::Baseband => baseband(seed, tracer, first),
        };
        rep.probe_s = probe::drain_mean();
        rep
    }
}

fn city_aps() -> usize {
    CITY_DISTRICTS * CITY_DISTRICTS * CITY_APS_PER_SIDE * CITY_APS_PER_SIDE
}

fn ctrl_aps() -> usize {
    CTRL_DISTRICTS * CTRL_DISTRICTS * CTRL_APS_PER_SIDE * CTRL_APS_PER_SIDE
}

/// FNV-1a over the bytes of the outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Hashes `v`'s `Debug` rendering as it is written, without holding
    /// the whole text in memory.
    fn debug<T: Debug + ?Sized>(&mut self, v: &T) {
        write!(self, "{v:?}").expect("hashing never fails");
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Ends the repetition's measured part, before any output is fingerprinted
/// or checked: closes its root span (set-up plus run) and returns the
/// process's peak RSS so far, in kB.
fn end_rep(tracer: Option<&Tracer>, started: Instant) -> u64 {
    if let Some(tr) = tracer {
        tr.record(ROOT, None, "rep", started, Instant::now());
    }
    acorn_soak::peak_rss_kb().unwrap_or(0)
}

/// The work counters every workload reads from its telemetry; a layer
/// that did no work on a workload reads 0.
fn counts(get: impl Fn(&str) -> u64) -> Vec<(&'static str, f64)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let hits = get(names::TABLE_HITS);
    let misses = get(names::TABLE_MISSES);
    vec![
        (
            "assoc.candidates_per_choice",
            ratio(get(names::ASSOC_CANDIDATES), get(names::ASSOC_CHOICES)),
        ),
        ("alloc.runs", get(names::ALLOC_RUNS) as f64),
        ("alloc.iterations", get(names::ALLOC_ITERATIONS) as f64),
        ("alloc.switches", get(names::ALLOC_SWITCHES) as f64),
        ("alloc.shards", get(names::ALLOC_SHARDS) as f64),
        (
            "model.cell_base_rebuilds",
            get(names::MODEL_REBUILDS) as f64,
        ),
        ("phy.table.hit_ratio", ratio(hits, hits + misses)),
        ("phy.table.misses", misses as f64),
        ("faults.frames_sent", get("faults.frames_sent") as f64),
        ("faults.parse_errors", get("faults.parse_errors") as f64),
        ("ctrl.msgs.sent", get(names::CTRL_MSGS_SENT) as f64),
        ("ctrl.msgs.acked", get(names::CTRL_MSGS_ACKED) as f64),
        (
            "ctrl.msgs.retransmitted",
            get(names::CTRL_MSGS_RETRANSMITTED) as f64,
        ),
        ("ctrl.msgs.deduped", get(names::CTRL_MSGS_DEDUPED) as f64),
        ("watchdog.checks", get("watchdog.checks") as f64),
        ("watchdog.graph_checks", get("watchdog.graph_checks") as f64),
    ]
}

/// What an event-driven scenario simulated.
struct SimOutput {
    events: u64,
    telemetry: TelemetrySnapshot,
    final_state: NetworkState,
    realloc: Vec<ReallocRecord>,
    violations: u64,
}

/// Pieces each event-driven run phase is timed in: equal stretches of
/// virtual time.
const SLICES: usize = 10;

fn sim_fingerprint(outputs: &[SimOutput]) -> u64 {
    let mut fp = Fnv::new();
    for o in outputs {
        fp.u64(o.events);
        fp.bytes(o.telemetry.to_json().as_bytes());
        fp.debug(&o.final_state);
        fp.debug(&o.realloc[..]);
    }
    fp.0
}

/// Fingerprints and counts the outputs of one repetition's scenario runs.
fn sim_rep(outputs: &[SimOutput], setup_s: f64, slices: Vec<f64>, peak_rss_kb: u64) -> Rep {
    let violations: u64 = outputs.iter().map(|o| o.violations).sum();
    let problems = if violations == 0 {
        Vec::new()
    } else {
        vec![format!("{violations} watchdog violations")]
    };
    Rep {
        setup_s,
        run_s: slices.iter().sum(),
        work: outputs.iter().map(|o| o.events).sum(),
        fingerprint: sim_fingerprint(outputs),
        peak_rss_kb,
        counts: counts(|name| {
            outputs
                .iter()
                .flat_map(|o| o.telemetry.counters.iter())
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum()
        }),
        problems,
        check_s: 0.0,
        probe_s: None,
    }
}

/// Checks that the scenario's own `run` entry point produces what its
/// rebuilt, sliced twin produced.
fn check_entry_point(rep: &mut Rep, entry: &str, direct: impl FnOnce() -> Vec<SimOutput>) {
    let t0 = Instant::now();
    if sim_fingerprint(&direct()) != rep.fingerprint {
        rep.problems.push(format!(
            "{entry} differs from the rebuilt scenario the benchmark times"
        ));
    }
    rep.check_s += t0.elapsed().as_secs_f64();
}

impl From<CompositeReport> for SimOutput {
    fn from(r: CompositeReport) -> SimOutput {
        SimOutput {
            events: r.stats.events,
            telemetry: r.telemetry,
            final_state: r.final_state,
            realloc: r.realloc,
            violations: 0,
        }
    }
}

impl From<CityReport> for SimOutput {
    fn from(r: CityReport) -> SimOutput {
        SimOutput {
            events: r.stats.events,
            telemetry: r.telemetry,
            final_state: r.final_state,
            realloc: r.realloc,
            violations: 0,
        }
    }
}

impl From<SoakReport> for SimOutput {
    fn from(r: SoakReport) -> SimOutput {
        SimOutput {
            events: r.stats.events,
            telemetry: r.telemetry,
            final_state: r.final_state,
            realloc: r.realloc,
            violations: r.violations,
        }
    }
}

/// Wraps a process in a timing process under a tracer.
fn wrap<W: 'static>(
    p: Box<dyn Process<W, AcornEvent>>,
    tr: Option<&Tracer>,
    run: u64,
) -> Box<dyn Process<W, AcornEvent>> {
    match tr {
        Some(t) => Timed::boxed(p, t, run),
        None => p,
    }
}

/// Runs `sim` to `horizon_s` in [`SLICES`] equal stretches of virtual time
/// and returns the final stats with each stretch's host seconds, probing
/// the host's speed before each stretch when untraced. Pausing at a
/// stretch's end changes nothing: `Simulation::run` resumes where it
/// stopped.
fn run_sliced<W>(
    sim: &mut Simulation<W, AcornEvent>,
    horizon_s: f64,
    tr: Option<&Tracer>,
) -> (RunStats, Vec<f64>) {
    let mut slices = Vec::with_capacity(SLICES + 2);
    let mut stats = None;
    for k in 1..=SLICES {
        let until = if k == SLICES {
            horizon_s
        } else {
            horizon_s * k as f64 / SLICES as f64
        };
        if tr.is_none() {
            probe::take();
        }
        let t0 = Instant::now();
        stats = Some(sim.run(until));
        slices.push(t0.elapsed().as_secs_f64());
    }
    (stats.expect("at least one stretch ran"), slices)
}

/// Runs set-up `repeats` times, once under a tracer so the trace holds one
/// set-up per repetition, and returns the last result with the median
/// set-up time: a set-up of microseconds is too short to time once.
fn setup_median<T>(tr: Option<&Tracer>, repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if tr.is_some() { 1 } else { repeats };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let out = last.expect("at least one set-up ran");
    (out, times[times.len() / 2])
}

/// `exact`'s session trace: Poisson arrivals conditioned on their expected
/// count (so uniform order statistics over the horizon) with CRAWDAD-fit
/// durations. Every seed replays the same number of sessions; the
/// per-event cost grows with the clients present, so a seed-dependent
/// count would move the rate.
fn exact_sessions(seed: u64) -> Vec<Session> {
    let n = (EXACT_SIDE as f64 * EXACT_SIDE as f64 * ARRIVALS_PER_AP_PER_S * EXACT_HORIZON_S)
        .round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut starts: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(0.0..EXACT_HORIZON_S))
        .collect();
    starts.sort_by(f64::total_cmp);
    let durations = AssociationDurations::default();
    starts
        .into_iter()
        .enumerate()
        .map(|(client, start_s)| Session {
            client,
            start_s,
            duration_s: durations.sample(&mut rng),
        })
        .collect()
}

/// `city`'s session trace, from the program's generator.
fn sessions(n_aps: usize, horizon_s: f64, seed: u64) -> Vec<Session> {
    let mut rng = StdRng::seed_from_u64(seed);
    SessionGenerator {
        arrival_rate_per_s: n_aps as f64 * ARRIVALS_PER_AP_PER_S,
        durations: AssociationDurations::default(),
    }
    .generate(&mut rng, horizon_s)
}

fn exact(seed: u64, tr: Option<&Tracer>, first: bool) -> Rep {
    let started = Instant::now();
    let (scenarios, setup_s) = setup_median(tr, EXACT_SETUPS, || {
        (0..EXACT_RUNS)
            .map(|k| exact_scenario(mix_seed(seed, k), tr))
            .collect::<Vec<_>>()
    });
    let ctl = AcornController::new(AcornConfig::default());
    let mut slices = Vec::new();
    let outputs: Vec<SimOutput> = scenarios
        .iter()
        .map(|sc| {
            let run = tr.map_or(RUN, Tracer::fresh_id);
            let ((out, s), _) = timed(tr, Some(run), ROOT, "run", || exact_sim(sc, &ctl, tr, run));
            slices.extend(s);
            out
        })
        .collect();
    let peak_rss_kb = end_rep(tr, started);
    let mut rep = sim_rep(&outputs, setup_s, slices, peak_rss_kb);
    if first && tr.is_none() {
        check_entry_point(&mut rep, "CompositeScenario::run", || {
            scenarios.iter().map(|sc| sc.run(&ctl).into()).collect()
        });
    }
    rep
}

/// One `exact` deployment: the 5x5 grid, its session trace, a walking
/// client and shadowing drift.
fn exact_scenario(seed: u64, tr: Option<&Tracer>) -> CompositeScenario {
    let (sessions, _) = timed(tr, None, ROOT, "setup.trace", || exact_sessions(seed));
    // One spare slot for the walking client.
    let n_clients = sessions.len() + 1;
    let (wlan, _) = timed(tr, None, ROOT, "setup.topology", || {
        enterprise_grid(EXACT_SIDE, EXACT_SIDE, 50.0, n_clients, seed)
    });
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan,
        sessions,
        horizon_s: EXACT_HORIZON_S,
        reallocation_period_s: EXACT_PERIOD_S,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 50.0, from.y),
                speed_mps: 0.02,
            },
            sample_period_s: 60.0,
        }),
        drift: Some(DriftSpec {
            period_s: EXACT_DRIFT_PERIOD_S,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed,
        record_log: false,
    }
}

/// `CompositeScenario::run`, rebuilt from the same public processes
/// (each wrapped in a timing process under a tracer) and run in pieces.
fn exact_sim(
    sc: &CompositeScenario,
    ctl: &AcornController,
    tr: Option<&Tracer>,
    run: u64,
) -> (SimOutput, Vec<f64>) {
    let (mut sim, build_s) = timed(tr, None, run, "run.build", || {
        let world = AcornWorld::new(sc.wlan.clone(), ctl.clone(), sc.seed);
        let mut sim: Simulation<AcornWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(sc.record_log);
        sim.add_process(wrap(
            Box::new(SessionProcess {
                sessions: sc.sessions.clone(),
                horizon_s: sc.horizon_s,
                adapt_widths: sc.adapt_widths,
            }),
            tr,
            run,
        ));
        sim.add_process(wrap(
            Box::new(ReallocationTimer {
                period_s: sc.reallocation_period_s,
                horizon_s: sc.horizon_s,
                restarts: sc.restarts,
                adapt_widths: sc.adapt_widths,
                seed_policy: SeedPolicy::FromEventSeq { base: sc.seed },
                safe_mode: false,
            }),
            tr,
            run,
        ));
        if let Some(m) = sc.mobility {
            sim.add_process(wrap(
                Box::new(MobilityProcess {
                    client: m.client,
                    trajectory: m.trajectory,
                    sample_period_s: m.sample_period_s,
                    horizon_s: sc.horizon_s,
                    adapt_widths: sc.adapt_widths,
                }),
                tr,
                run,
            ));
        }
        if let Some(d) = sc.drift {
            sim.add_process(wrap(
                Box::new(DriftProcess {
                    period_s: d.period_s,
                    horizon_s: sc.horizon_s,
                    phase_step_rad: d.phase_step_rad,
                }),
                tr,
                run,
            ));
        }
        sim
    });
    let (stats, mut slices) = run_sliced(&mut sim, sc.horizon_s, tr);
    slices.insert(0, build_s);
    let (out, report_s) = timed(tr, None, run, "run.report", || SimOutput {
        events: stats.events,
        telemetry: sim.telemetry.snapshot(),
        final_state: sim.world.state.clone(),
        realloc: std::mem::take(&mut sim.world.realloc_log),
        violations: 0,
    });
    slices.push(report_s);
    (out, slices)
}

fn city(seed: u64, tr: Option<&Tracer>, first: bool) -> Rep {
    let started = Instant::now();
    let (sessions, _) = timed(tr, None, ROOT, "setup.trace", || {
        sessions(city_aps(), CITY_HORIZON_S, seed)
    });
    let n_clients = sessions.len().max(1);
    let (wlan, _) = timed(tr, None, ROOT, "setup.topology", || {
        city_grid(CITY_DISTRICTS, CITY_APS_PER_SIDE, n_clients, seed)
    });
    let (table, _) = timed(tr, None, ROOT, "setup.table", || {
        Arc::new(GoodputTable::new(LinkQualityEstimator::default()))
    });
    let ctl = AcornController::with_table(AcornConfig::default(), table);
    let scenario = CityScenario {
        wlan,
        sessions,
        horizon_s: CITY_HORIZON_S,
        reallocation_period_s: CITY_PERIOD_S,
        restarts: 2,
        candidate_radius_m: 120.0,
        adapt_widths: true,
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed,
        record_log: false,
    };
    let setup_s = started.elapsed().as_secs_f64();
    let ((out, slices), _) = timed(tr, Some(RUN), ROOT, "run", || city_sim(&scenario, &ctl, tr));
    let peak_rss_kb = end_rep(tr, started);
    let mut rep = sim_rep(&[out], setup_s, slices, peak_rss_kb);
    if first && tr.is_none() {
        check_entry_point(&mut rep, "CityScenario::run", || {
            vec![scenario.run(&ctl).into()]
        });
    }
    rep
}

/// `CityScenario::run` (no fault plan), rebuilt from the same public
/// processes (each wrapped in a timing process under a tracer) and run in
/// pieces.
fn city_sim(
    sc: &CityScenario,
    ctl: &AcornController,
    tr: Option<&Tracer>,
) -> (SimOutput, Vec<f64>) {
    let run = RUN;
    let (mut sim, build_s) = timed(tr, None, run, "run.build", || {
        let world = CityWorld::new(sc.wlan.clone(), ctl.clone(), sc.candidate_radius_m, sc.seed);
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(sc.record_log);
        sim.add_process(wrap(
            Box::new(CitySessionProcess {
                sessions: sc.sessions.clone(),
                horizon_s: sc.horizon_s,
                adapt_widths: sc.adapt_widths,
            }),
            tr,
            run,
        ));
        sim.add_process(wrap(
            Box::new(CityReallocationTimer {
                period_s: sc.reallocation_period_s,
                horizon_s: sc.horizon_s,
                restarts: sc.restarts,
                adapt_widths: sc.adapt_widths,
                seed_policy: SeedPolicy::FromEventSeq { base: sc.seed },
                safe_mode: false,
            }),
            tr,
            run,
        ));
        if let Some(d) = sc.drift {
            sim.add_process(wrap(
                Box::new(CityDriftProcess {
                    period_s: d.period_s,
                    horizon_s: sc.horizon_s,
                    phase_step_rad: d.phase_step_rad,
                }),
                tr,
                run,
            ));
        }
        sim
    });
    let (stats, mut slices) = run_sliced(&mut sim, sc.horizon_s, tr);
    slices.insert(0, build_s);
    let (out, report_s) = timed(tr, None, run, "run.report", || SimOutput {
        events: stats.events,
        telemetry: sim.telemetry.snapshot(),
        final_state: sim.world.state.clone(),
        realloc: std::mem::take(&mut sim.world.realloc_log),
        violations: 0,
    });
    slices.push(report_s);
    (out, slices)
}

/// The steady fault plan: one AP down at a time (~18% duty), a lossy and
/// corrupting control wire, and measurement faults.
fn steady_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: seed ^ 0xFA17,
        control_period_s: 10.0,
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

fn soak(seed: u64, tr: Option<&Tracer>, first: bool) -> Rep {
    let started = Instant::now();
    let (wlan, _) = timed(tr, None, ROOT, "setup.topology", || {
        city_grid(4, 2, SOAK_CLIENTS, seed)
    });
    let (table, _) = timed(tr, None, ROOT, "setup.table", || {
        Arc::new(GoodputTable::new(LinkQualityEstimator::default()))
    });
    let ctl = AcornController::with_table(AcornConfig::default(), table);
    let mut sc = SoakScenario::new(wlan, SOAK_HORIZON_S, seed);
    sc.workload = WorkloadSpec {
        base_rate_per_s: 1.0 / 30.0,
        diurnal_amplitude: 0.6,
        day_period_s: 86_400.0,
        mix_seed: seed ^ 0x50AC,
        ..WorkloadSpec::default()
    };
    sc.probe_period_s = 60.0;
    sc.watchdog = Some(WatchdogSpec {
        period_s: 300.0,
        graph_check_every: 16,
        fail_fast: true,
    });
    sc.faults = Some(steady_faults(seed));
    let setup_s = started.elapsed().as_secs_f64();
    let ((out, slices), _) = timed(tr, Some(RUN), ROOT, "run", || soak_sim(&sc, &ctl, tr));
    let peak_rss_kb = end_rep(tr, started);
    let mut rep = sim_rep(&[out], setup_s, slices, peak_rss_kb);
    if first && tr.is_none() {
        check_entry_point(&mut rep, "SoakScenario::run", || vec![sc.run(&ctl).into()]);
    }
    rep
}

/// `SoakScenario::run`, rebuilt from the same public processes (each
/// wrapped in a timing process under a tracer) and run in pieces.
fn soak_sim(
    sc: &SoakScenario,
    ctl: &AcornController,
    tr: Option<&Tracer>,
) -> (SimOutput, Vec<f64>) {
    let run = RUN;
    let (mut sim, build_s) = timed(tr, None, run, "run.build", || {
        let world = CityWorld::new(sc.wlan.clone(), ctl.clone(), sc.candidate_radius_m, sc.seed);
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(sc.record_log);
        sim.add_process(wrap(
            Box::new(WorkloadGen::new(
                sc.workload.clone(),
                sc.horizon_s,
                sc.adapt_widths,
            )),
            tr,
            run,
        ));
        sim.add_process(wrap(
            Box::new(CityReallocationTimer {
                period_s: sc.reallocation_period_s,
                horizon_s: sc.horizon_s,
                restarts: sc.restarts,
                adapt_widths: sc.adapt_widths,
                seed_policy: if sc.faults.is_some() {
                    SeedPolicy::Sequential {
                        next: sc.seed.wrapping_add(1),
                    }
                } else {
                    SeedPolicy::FromEventSeq { base: sc.seed }
                },
                safe_mode: sc.faults.is_some(),
            }),
            tr,
            run,
        ));
        if let Some(d) = sc.drift {
            sim.add_process(wrap(
                Box::new(CityDriftProcess {
                    period_s: d.period_s,
                    horizon_s: sc.horizon_s,
                    phase_step_rad: d.phase_step_rad,
                }),
                tr,
                run,
            ));
        }
        sim.add_process(wrap(
            Box::new(SoakProbe {
                period_s: sc.probe_period_s,
                horizon_s: sc.horizon_s,
            }),
            tr,
            run,
        ));
        if let Some(spec) = sc.watchdog {
            sim.add_process(wrap(
                Box::new(InvariantWatchdog::new(
                    spec,
                    sc.horizon_s,
                    sc.seed,
                    sc.faults.is_some(),
                )),
                tr,
                run,
            ));
        }
        if let Some(plan) = sc.faults {
            sim.add_process(wrap(
                Box::new(CityFaultProcess::new(plan, sc.horizon_s)),
                tr,
                run,
            ));
        }
        sim
    });
    let (stats, mut slices) = run_sliced(&mut sim, sc.horizon_s, tr);
    slices.insert(0, build_s);
    let (out, report_s) = timed(tr, None, run, "run.report", || SimOutput {
        events: stats.events,
        violations: sim.telemetry.counter("watchdog.violations"),
        telemetry: sim.telemetry.snapshot(),
        final_state: sim.world.state.clone(),
        realloc: std::mem::take(&mut sim.world.realloc_log),
    });
    slices.push(report_s);
    (out, slices)
}

fn plane_config(seed: u64) -> PlaneConfig {
    PlaneConfig {
        seed,
        epoch_period_s: 100.0,
        first_epoch_at_s: 10.0,
        horizon_s: 10.0 + (CTRL_EPOCHS - 1) as f64 * 100.0,
        restarts: 2,
        faults: FaultPlan {
            seed: seed ^ 0xFA17,
            loss: 0.3,
            corruption: 0.05,
            ..FaultPlan::default()
        },
        ..PlaneConfig::default()
    }
}

fn ctrlplane(seed: u64, tr: Option<&Tracer>, first: bool) -> Rep {
    let started = Instant::now();
    let (wlan, _) = timed(tr, None, ROOT, "setup.topology", || {
        city_grid(CTRL_DISTRICTS, CTRL_APS_PER_SIDE, ctrl_aps(), seed)
    });
    let (table, _) = timed(tr, None, ROOT, "setup.table", || {
        Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.25,
        ))
    });
    let ctl = AcornController::with_table(AcornConfig::default(), table);
    let (mut plane, _) = timed(tr, None, ROOT, "ctrlplane.build", || {
        DistributedPlane::new(wlan, ctl, plane_config(seed))
    });
    let setup_s = started.elapsed().as_secs_f64();
    let horizon_s = plane.config().horizon_s;
    let mut slices = Vec::with_capacity(SLICES);
    let (stats, _) = timed(tr, None, ROOT, "ctrlplane.run", || {
        // Every epoch in equal stretches of virtual time, then the drain;
        // `run_to_quiescence` resumes where `run_until` stopped.
        for k in 1..SLICES {
            if tr.is_none() {
                probe::take();
            }
            let t0 = Instant::now();
            plane.run_until(horizon_s * k as f64 / SLICES as f64);
            slices.push(t0.elapsed().as_secs_f64());
        }
        if tr.is_none() {
            probe::take();
        }
        let t0 = Instant::now();
        let stats = plane.run_to_quiescence();
        slices.push(t0.elapsed().as_secs_f64());
        stats
    });
    let peak_rss_kb = end_rep(tr, started);
    let report = plane.report();
    let mut fp = Fnv::new();
    fp.u64(stats.events);
    fp.debug(plane.state());
    fp.debug(&report);
    let mut problems = Vec::new();
    let checks = Instant::now();
    if first {
        let twin = plane.centralized_twin();
        let state = plane.state();
        if twin.assignments != state.assignments || twin.operating_width != state.operating_width {
            problems.push("the distributed plan differs from centralized_twin()".to_string());
        }
    }
    let telemetry = plane.telemetry();
    Rep {
        setup_s,
        run_s: slices.iter().sum(),
        work: stats.events,
        fingerprint: fp.0,
        peak_rss_kb,
        counts: counts(|name| telemetry.counter(name)),
        problems,
        check_s: checks.elapsed().as_secs_f64(),
        probe_s: None,
    }
}

/// The Fig. 3-5 engine mix: 1500-byte QPSK frames at 7 dB per-subcarrier
/// SNR on AWGN with genie sync, coded R1/2 and uncoded, at 20 and 40 MHz.
fn baseband_configs() -> Vec<FrameConfig> {
    let mut configs = Vec::new();
    for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
        for code_rate in [Some(CodeRate::R12), None] {
            configs.push(
                FrameConfig {
                    width,
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
                .with_target_snr(7.0),
            );
        }
    }
    configs
}

fn outcome_fingerprint(outcomes: &[Vec<PacketOutcome>]) -> u64 {
    let mut fp = Fnv::new();
    for o in outcomes.iter().flatten() {
        fp.u64(o.bits as u64);
        fp.u64(o.bit_errors as u64);
        fp.u64(o.sync_failed as u64);
        fp.u64(o.tx_power.to_bits());
        fp.u64(o.evm_sum.to_bits());
        fp.u64(o.evm_n as u64);
    }
    fp.0
}

/// Runs every packet on its own through `run_packet_obs` with a
/// wall-clock stage sink; each packet is a span under the run span.
fn baseband_per_packet(
    configs: &[FrameConfig],
    seeds: &[Vec<u64>],
    ws: &mut FrameWorkspace,
    tr: &Tracer,
) -> Vec<Vec<PacketOutcome>> {
    let sink = StageSink::new(tr);
    let mut id = 0u64;
    configs
        .iter()
        .zip(seeds)
        .map(|(cfg, seeds)| {
            seeds
                .iter()
                .map(|&s| {
                    sink.open_packet(id);
                    let t0 = Instant::now();
                    let o = ws
                        .run_packet_obs(cfg, s, &sink)
                        .expect("valid frame config");
                    tr.record(id, Some(RUN), "baseband.packet", t0, Instant::now());
                    id += 1;
                    o
                })
                .collect()
        })
        .collect()
}

fn baseband(seed: u64, tr: Option<&Tracer>, first: bool) -> Rep {
    let started = Instant::now();
    let configs = baseband_configs();
    let seeds: Vec<Vec<u64>> = (0..configs.len() as u64)
        .map(|c| {
            let base = mix_seed(seed, c);
            (0..BASEBAND_PACKETS as u64)
                .map(|i| mix_seed(base, i))
                .collect()
        })
        .collect();
    let ((mut ws, mut outcomes), setup_s) = setup_median(tr, BASEBAND_SETUPS, || {
        let (ws, _) = timed(tr, None, ROOT, "setup.warmup", || {
            let mut ws = FrameWorkspace::new();
            for cfg in &configs {
                ws.run_packet(cfg, mix_seed(seed, u64::MAX))
                    .expect("valid frame config");
            }
            ws
        });
        let outcomes: Vec<Vec<PacketOutcome>> = configs
            .iter()
            .map(|_| Vec::with_capacity(BASEBAND_PACKETS))
            .collect();
        (ws, outcomes)
    });
    let (slices, _) = timed(tr, Some(RUN), ROOT, "baseband.run", || match tr {
        None => configs
            .iter()
            .zip(&seeds)
            .zip(&mut outcomes)
            .map(|((cfg, s), out)| {
                probe::take();
                let t0 = Instant::now();
                ws.run_packets(cfg, s, out).expect("valid frame config");
                t0.elapsed().as_secs_f64()
            })
            .collect(),
        Some(t) => {
            let t0 = Instant::now();
            outcomes = baseband_per_packet(&configs, &seeds, &mut ws, t);
            vec![t0.elapsed().as_secs_f64()]
        }
    });
    let peak_rss_kb = end_rep(tr, started);
    let fingerprint = outcome_fingerprint(&outcomes);
    let mut problems = Vec::new();
    let checks = Instant::now();
    if first && tr.is_none() {
        let scratch = Tracer::new(Instant::now());
        let per_packet = baseband_per_packet(&configs, &seeds, &mut ws, &scratch);
        if outcome_fingerprint(&per_packet) != fingerprint {
            problems.push("batched outcomes differ from per-packet traced outcomes".to_string());
        }
    }
    let sync_failures = outcomes.iter().flatten().filter(|o| o.sync_failed).count();
    Rep {
        setup_s,
        run_s: slices.iter().sum(),
        work: (configs.len() * BASEBAND_PACKETS) as u64,
        fingerprint,
        peak_rss_kb,
        counts: vec![("baseband.sync_failures", sync_failures as f64)],
        problems,
        check_s: checks.elapsed().as_secs_f64(),
        probe_s: None,
    }
}
