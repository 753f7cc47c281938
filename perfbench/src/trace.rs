//! Spans recorded from outside the program, and the per-layer figures
//! derived from them.
//!
//! Every span has a name, a start and an end on one process-wide clock,
//! an id, and the id of the span that contains it. A simulated event's
//! span uses the event's sequence number as its id, unique under its run
//! span; the benchmark's own structural spans (repetition, set-up phases,
//! run) take ids counted down from `u64::MAX`, so the two never collide. Spans stay in memory and are
//! written out once the benchmark ends.

use acorn_events::{AcornEvent, Ctx, Process};
use acorn_obs::{names, Sink};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Id of a repetition's root span.
pub const ROOT: u64 = u64::MAX;
/// Id of the span around the program's run entry point.
pub const RUN: u64 = u64::MAX - 1;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced repetition. Cloning shares it,
/// so timing processes and sinks can record into the same store.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Rc<RefCell<Vec<SpanRec>>>,
    next_id: Rc<Cell<u64>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Rc::new(RefCell::new(Vec::new())),
            next_id: Rc::new(Cell::new(RUN - 1)),
        }
    }

    /// A fresh structural span id.
    pub fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id - 1);
        id
    }

    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(SpanRec {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Runs `f` and returns its value with its wall time in seconds; under a
/// tracer, also records it as span `name` with id `id` under `parent`.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    id: Option<u64>,
    parent: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    if let Some(tr) = tracer {
        let id = id.unwrap_or_else(|| tr.fresh_id());
        tr.record(id, Some(parent), name, t0, t1);
    }
    (out, (t1 - t0).as_secs_f64())
}

/// The span name of a dispatched event, after its `AcornEvent` variant.
pub fn event_span_name(e: &AcornEvent) -> &'static str {
    match e {
        AcornEvent::Arrive(_) => "events.arrive",
        AcornEvent::Depart(_) => "events.depart",
        AcornEvent::Reallocate => "events.realloc",
        AcornEvent::MobilitySample => "events.mobility",
        AcornEvent::DriftStep => "events.drift",
        AcornEvent::ApCrash(_) | AcornEvent::ApRestart(_) => "events.ap_fault",
        AcornEvent::ControlRound => "events.control_round",
        AcornEvent::DeliverMsg(_) => "events.deliver_msg",
        AcornEvent::WorkloadTick => "events.workload_tick",
        AcornEvent::ProbeSample => "events.probe",
        AcornEvent::WatchdogCheck => "events.watchdog",
    }
}

/// Wraps one of the program's public processes and records a span per
/// event it handles, under the run span `parent`. `start` is passed
/// through untimed: it runs inside the scenario's build span.
pub struct Timed<W> {
    inner: Box<dyn Process<W, AcornEvent>>,
    tracer: Tracer,
    parent: u64,
}

impl<W> Timed<W> {
    pub fn boxed(
        inner: Box<dyn Process<W, AcornEvent>>,
        tracer: &Tracer,
        parent: u64,
    ) -> Box<Timed<W>> {
        Box::new(Timed {
            inner,
            tracer: tracer.clone(),
            parent,
        })
    }
}

impl<W> Process<W, AcornEvent> for Timed<W> {
    fn start(&mut self, ctx: &mut Ctx<'_, W, AcornEvent>) {
        self.inner.start(ctx);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, W, AcornEvent>) {
        let t0 = Instant::now();
        self.inner.handle(event, ctx);
        let t1 = Instant::now();
        self.tracer.record(
            ctx.event_seq(),
            Some(self.parent),
            event_span_name(event),
            t0,
            t1,
        );
    }
}

const STAGES: [&str; 6] = [
    names::BASEBAND_STAGE_ENCODE,
    names::BASEBAND_STAGE_STREAMS,
    names::BASEBAND_STAGE_CHANNEL,
    names::BASEBAND_STAGE_SYNC,
    names::BASEBAND_STAGE_RECEIVE,
    names::BASEBAND_STAGE_DECODE,
];

/// A sink that asks the baseband for wall-clock stage spans and records
/// each as a child of the packet span currently open. Counters are left
/// out: the benchmark reads its counts from the packet outcomes.
pub struct StageSink {
    tracer: Tracer,
    packet: Cell<u64>,
}

impl StageSink {
    pub fn new(tracer: &Tracer) -> StageSink {
        StageSink {
            tracer: tracer.clone(),
            packet: Cell::new(0),
        }
    }

    /// Makes packet span `id` the parent of the stage spans that follow.
    pub fn open_packet(&self, id: u64) {
        self.packet.set(id);
    }
}

impl Sink for StageSink {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, _name: &str, _n: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _x: f64) {}
    fn wants_wall_time(&self) -> bool {
        true
    }
    fn span_wall_s(&self, name: &str, secs: f64) {
        // The span's guard has just measured `secs`; its end is now.
        let end = Instant::now();
        let start = end
            .checked_sub(std::time::Duration::from_secs_f64(secs))
            .unwrap_or(end);
        let name = STAGES
            .iter()
            .find(|&&s| s == name)
            .copied()
            .unwrap_or("baseband.stage.other");
        self.tracer.record(
            self.tracer.fresh_id(),
            Some(self.packet.get()),
            name,
            start,
            end,
        );
    }
}

/// Per-layer figures of one traced repetition.
#[derive(Debug, Default)]
pub struct Summary {
    pub metrics: BTreeMap<String, f64>,
    /// Tail metric name -> (quantile, sample count).
    pub tails: BTreeMap<String, (f64, usize)>,
    /// Share of the repetition's wall time covered by named spans.
    pub coverage: f64,
    /// Nesting or self-time violations.
    pub problems: Vec<String>,
}

/// Nearest-rank quantile of sorted `xs`.
fn quantile(xs: &[u64], q: f64) -> u64 {
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The highest of p50, p90, p99, ... with at least ten samples above its
/// rank, or the maximum (q = 1) when no such quantile exists.
fn tail(xs: &[u64]) -> (f64, u64) {
    let n = xs.len();
    for q in [0.99999, 0.9999, 0.999, 0.99, 0.9, 0.5] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (q, quantile(xs, q));
        }
    }
    (1.0, xs[n - 1])
}

/// Derives self times, counts and latency quantiles from one repetition's
/// spans, and checks that every span lies inside its parent and that no
/// self time is negative.
pub fn summarize(spans: &[SpanRec]) -> Summary {
    let mut s = Summary::default();
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, sp)| (sp.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        let Some(pid) = sp.parent else { continue };
        match index.get(&pid) {
            Some(&p) => {
                let parent = &spans[p];
                if sp.start_ns < parent.start_ns || sp.end_ns > parent.end_ns {
                    s.problems.push(format!(
                        "span {} ({}) is not inside its parent {} ({})",
                        sp.id, sp.name, pid, parent.name
                    ));
                }
                child_ns[p] += sp.dur_ns();
            }
            None => s
                .problems
                .push(format!("span {} has no parent {pid}", sp.id)),
        }
    }
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut durations: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut root = None;
    let mut dispatched = 0u64;
    for (i, sp) in spans.iter().enumerate() {
        let dur = sp.dur_ns();
        if child_ns[i] > dur {
            s.problems.push(format!(
                "span {} ({}) has negative self time: {} ns of children in {} ns",
                sp.id, sp.name, child_ns[i], dur
            ));
        }
        let own = dur.saturating_sub(child_ns[i]);
        if sp.id == ROOT {
            root = Some((dur, own));
            continue;
        }
        *self_ns.entry(sp.name).or_insert(0) += own;
        if sp.name.starts_with("events.") {
            dispatched += 1;
            durations.entry(sp.name).or_default().push(dur);
        }
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    for (name, ns) in &self_ns {
        let key = match *name {
            "run" => "events.kernel.self_s".to_string(),
            n if n.starts_with("events.") || n.starts_with("baseband.") => format!("{n}.self_s"),
            n => format!("{n}_s"),
        };
        s.metrics.insert(key, secs(*ns));
    }
    if let Some(&kernel) = self_ns.get("run") {
        s.metrics
            .insert("events.dispatched".into(), dispatched as f64);
        if dispatched > 0 {
            s.metrics.insert(
                "events.kernel.ns_per_event".into(),
                kernel as f64 / dispatched as f64,
            );
        }
    }
    for (name, mut xs) in durations {
        xs.sort_unstable();
        s.metrics.insert(format!("{name}.count"), xs.len() as f64);
        s.metrics
            .insert(format!("{name}.p50_us"), quantile(&xs, 0.5) as f64 * 1e-3);
        let (q, v) = tail(&xs);
        s.metrics.insert(format!("{name}.tail_us"), v as f64 * 1e-3);
        s.tails.insert(format!("{name}.tail_us"), (q, xs.len()));
    }
    match root {
        Some((dur, own)) if dur > 0 => s.coverage = 1.0 - own as f64 / dur as f64,
        _ => s.problems.push("no repetition root span".into()),
    }
    s
}

/// Writes spans as tab-separated `id parent name start_ns end_ns` lines
/// after `#`-prefixed header lines.
pub fn write_spans(
    path: &std::path::Path,
    header: &[String],
    spans: &[SpanRec],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for h in header {
        writeln!(out, "# {h}")?;
    }
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for sp in spans {
        let parent = sp.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            sp.id, parent, sp.name, sp.start_ns, sp.end_ns
        )?;
    }
    out.flush()
}
