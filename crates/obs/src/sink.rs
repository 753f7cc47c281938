//! Metric sinks: where instrumented code reports to.
//!
//! Entry points take their sink explicitly, and hot paths are generic
//! over [`Sink`] so the disabled configuration compiles down to nothing:
//! [`NullSink`] is a unit type whose methods
//! are empty `#[inline]` bodies, and `acorn_bench::alloc_counter`
//! verifies the baseband steady state stays at 0 allocs/packet with it
//! attached. [`RecordingSink`] is the enabled configuration — a
//! `Mutex<Telemetry>` that is `Sync` (restart fan-outs share one sink
//! across `par_map` threads) and **never reads the wall clock** unless
//! explicitly built with [`RecordingSink::with_wall_time`], which only
//! bench binaries may do.
//!
//! # Determinism rules
//!
//! Instrumented code must keep the `ACORN_THREADS=1/2/8` bit-identity
//! contract. Two rules make that automatic:
//!
//! 1. From **parallel regions** (inside `par_map`/`par_map_n` closures)
//!    emit only counter increments ([`Sink::add`]/[`Sink::inc`] or
//!    [`Sink::span`] entry counts). `u64` addition commutes, so totals
//!    are invariant to thread interleaving.
//! 2. Gauges, histogram observations, and series samples carry ordered
//!    or last-write-wins state — emit them only from sequential
//!    contexts (controller level, event handlers).
//!
//! A default-constructed `RecordingSink` records span *entry counts*
//! instead of durations — monotonic sequence information, not time — so
//! a recorded run snapshots byte-identically at any thread count.

use crate::telemetry::{Telemetry, TelemetrySnapshot};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A destination for metrics emitted by instrumented code.
///
/// All methods take `&self` so one sink can be shared across the
/// parallel fan-outs in `acorn_core::allocate`; implementations that
/// actually record therefore need interior mutability (see
/// [`RecordingSink`]).
pub trait Sink {
    /// True when this sink records anything. Lets call sites skip
    /// building metric inputs (formatting, counting) that only matter
    /// when observability is on.
    fn enabled(&self) -> bool;

    /// Adds `n` to the counter `name`.
    fn add(&self, name: &str, n: u64);

    /// Increments the counter `name` by 1.
    #[inline]
    fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `value` (last write wins — sequential
    /// contexts only, per the module-level determinism rules).
    fn gauge(&self, name: &str, value: f64);

    /// Records `x` into the histogram `name` (sequential contexts only).
    fn observe(&self, name: &str, x: f64);

    /// Records `x` into the bounded-memory quantile sketch `name`
    /// (sequential contexts only — sketch state is order-sensitive under
    /// compaction, like series samples). Default is a no-op so existing
    /// sinks stay source-compatible.
    #[inline]
    fn sketch_observe(&self, _name: &str, _x: f64) {}

    /// True when this sink wants wall-clock span durations. Defaults to
    /// `false`; deterministic sinks must never return `true` inside
    /// simulations.
    #[inline]
    fn wants_wall_time(&self) -> bool {
        false
    }

    /// Receives a wall-clock span duration (seconds). Only called when
    /// [`wants_wall_time`](Sink::wants_wall_time) is true.
    #[inline]
    fn span_wall_s(&self, _name: &str, _secs: f64) {}

    /// Opens a span: increments the counter `name` now, and — only if
    /// the sink opted into wall time — measures the elapsed duration
    /// until the guard drops and reports it via
    /// [`span_wall_s`](Sink::span_wall_s).
    #[inline]
    fn span<'a>(&'a self, name: &'a str) -> Span<'a>
    where
        Self: Sized,
    {
        Span::open(self, name)
    }
}

impl<S: Sink + ?Sized> Sink for &S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn add(&self, name: &str, n: u64) {
        (**self).add(name, n)
    }
    #[inline]
    fn gauge(&self, name: &str, value: f64) {
        (**self).gauge(name, value)
    }
    #[inline]
    fn observe(&self, name: &str, x: f64) {
        (**self).observe(name, x)
    }
    #[inline]
    fn sketch_observe(&self, name: &str, x: f64) {
        (**self).sketch_observe(name, x)
    }
    #[inline]
    fn wants_wall_time(&self) -> bool {
        (**self).wants_wall_time()
    }
    #[inline]
    fn span_wall_s(&self, name: &str, secs: f64) {
        (**self).span_wall_s(name, secs)
    }
}

/// RAII guard returned by [`Sink::span`]. Entry is counted when the
/// span opens; wall-clock duration is reported on drop only for sinks
/// that asked for it.
pub struct Span<'a> {
    sink: &'a dyn Sink,
    name: &'a str,
    started: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Opens a span against `sink` (normally via [`Sink::span`]).
    #[inline]
    pub fn open(sink: &'a dyn Sink, name: &'a str) -> Span<'a> {
        if !sink.enabled() {
            return Span {
                sink,
                name,
                started: None,
            };
        }
        sink.inc(name);
        Span {
            sink,
            name,
            started: sink.wants_wall_time().then(Instant::now),
        }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            self.sink.span_wall_s(self.name, t0.elapsed().as_secs_f64());
        }
    }
}

/// The disabled sink, what callers pass to run an entry point with
/// observability off: every method is an empty inlineable body, so
/// instrumented hot paths compiled against it cost nothing and allocate
/// nothing (gated in CI via `acorn_bench::alloc_counter`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn add(&self, _name: &str, _n: u64) {}
    #[inline]
    fn gauge(&self, _name: &str, _value: f64) {}
    #[inline]
    fn observe(&self, _name: &str, _x: f64) {}
}

/// The enabled sink: records into an interior [`Telemetry`] behind a
/// `Mutex` so it is `Sync` and shareable across restart fan-outs.
///
/// Built with [`new`](RecordingSink::new) it is fully deterministic —
/// it never reads the wall clock, and spans record entry counts only.
/// [`with_wall_time`](RecordingSink::with_wall_time) additionally
/// accumulates real span durations into `<name>.wall_s` counters-like
/// histogram observations; that mode is **explicitly non-deterministic**
/// and reserved for bench binaries outside any bit-identity contract.
#[derive(Debug, Default)]
pub struct RecordingSink {
    inner: Mutex<Telemetry>,
    wall: bool,
}

impl RecordingSink {
    /// A deterministic recording sink (no wall-clock access, ever).
    pub fn new() -> RecordingSink {
        RecordingSink {
            inner: Mutex::new(Telemetry::new()),
            wall: false,
        }
    }

    /// A recording sink that also measures wall-clock span durations.
    /// Non-deterministic by construction — bench binaries only, never
    /// inside the determinism-swept simulations.
    pub fn with_wall_time() -> RecordingSink {
        RecordingSink {
            inner: Mutex::new(Telemetry::new()),
            wall: true,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Freezes the recorded metrics into a byte-stable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.lock().snapshot()
    }

    /// Moves everything recorded so far into `dst` (leaving this sink
    /// empty), merging via [`Telemetry::absorb`]. This is how event
    /// handlers fold an ephemeral sink into the run-wide recorder.
    pub fn drain_into(&self, dst: &mut Telemetry) {
        let taken = std::mem::take(&mut *self.lock());
        dst.absorb(taken);
    }

    /// Runs `f` with a read lock on the recorded telemetry.
    pub fn with_telemetry<R>(&self, f: impl FnOnce(&Telemetry) -> R) -> R {
        f(&self.lock())
    }
}

impl Sink for RecordingSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, name: &str, n: u64) {
        self.lock().add(name, n);
    }
    fn gauge(&self, name: &str, value: f64) {
        self.lock().set_gauge(name, value);
    }
    fn observe(&self, name: &str, x: f64) {
        self.lock().observe(name, x);
    }
    fn sketch_observe(&self, name: &str, x: f64) {
        self.lock().sketch_observe(name, x);
    }
    fn wants_wall_time(&self) -> bool {
        self.wall
    }
    fn span_wall_s(&self, name: &str, secs: f64) {
        let mut t = self.lock();
        let key = format!("{name}.wall_s");
        t.observe(&key, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let s = NullSink;
        assert!(!s.enabled());
        s.inc("x");
        s.add("x", 5);
        s.gauge("g", 1.0);
        s.observe("h", 0.5);
        let _span = s.span("stage");
    }

    #[test]
    fn recording_sink_counts_and_snapshots() {
        let s = RecordingSink::new();
        assert!(s.enabled());
        s.inc("a");
        s.add("a", 2);
        s.gauge("g", 4.0);
        s.observe("h", 0.25);
        {
            let _span = s.span("stage");
        }
        let snap = s.snapshot();
        assert!(snap.counters.iter().any(|c| c.name == "a" && c.value == 3));
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "stage" && c.value == 1));
        assert!(snap.gauges.iter().any(|g| g.name == "g" && g.value == 4.0));
        // Deterministic sink: spans count entries, never record wall time.
        assert!(!snap.histograms.iter().any(|h| h.name.ends_with(".wall_s")));
    }

    #[test]
    fn wall_time_mode_records_span_durations() {
        let s = RecordingSink::with_wall_time();
        {
            let _span = s.span("work");
        }
        let snap = s.snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "work.wall_s" && h.count == 1));
    }

    #[test]
    fn drain_into_moves_and_merges() {
        let s = RecordingSink::new();
        s.add("n", 2);
        let mut t = Telemetry::new();
        t.add("n", 1);
        s.drain_into(&mut t);
        assert_eq!(t.counter("n"), 3);
        // Sink is now empty; a second drain adds nothing.
        s.drain_into(&mut t);
        assert_eq!(t.counter("n"), 3);
    }

    #[test]
    fn sink_works_through_references() {
        fn takes_sink<S: Sink>(s: S) {
            s.inc("via_ref");
        }
        let s = RecordingSink::new();
        takes_sink(&s);
        takes_sink(&&s);
        assert_eq!(s.with_telemetry(|t| t.counter("via_ref")), 2);
    }

    #[test]
    fn recording_sink_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<RecordingSink>();
    }
}
