//! # acorn-obs — first-class observability for the ACORN workspace
//!
//! Every layer of the reproduction — `choose_ap` candidate ranking,
//! Algorithm 2's greedy rounds and restart fan-out, the throughput
//! model's cache, the controller's epochs, the fault layer's CSA/IAPP
//! machinery, and the baseband packet pipeline — reports into one small
//! [`Sink`] trait instead of ad-hoc printlns or nothing at all. Three
//! properties are load-bearing:
//!
//! 1. **Zero cost when off.** [`NullSink`] is a unit type whose methods
//!    are empty `#[inline]` bodies; instrumented hot paths compiled
//!    against it keep their zero-allocation steady state (checked with
//!    `acorn_bench::alloc_counter`, gated in `scripts/ci.sh`).
//! 2. **Deterministic when on.** [`RecordingSink`] never reads the wall
//!    clock: span "timing" is an entry *count* by default (monotonic
//!    sequence numbers), and only commutative `u64` counter increments
//!    may be emitted from parallel regions — so instrumented runs stay
//!    bit-identical at `ACORN_THREADS=1/2/8`. Only a sink outside the
//!    simulations (perfbench's stage timer) opts into wall-clock span
//!    durations, through [`Sink::wants_wall_time`].
//! 3. **One namespace.** The metric names in [`names`] are shared by
//!    events, sim, and bench consumers; [`Telemetry`] (moved here from
//!    `acorn-events`, which now re-exports it) is the single recorder
//!    type behind every byte-stable JSON snapshot under `results/`.
//!
//! See DESIGN.md §12 for the sink model and the determinism rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod names;
pub mod sink;
pub mod sketch;
pub mod telemetry;

pub use sink::{NullSink, RecordingSink, Sink, Span};
pub use sketch::{QuantileSketch, SketchEntry, SketchError, DEFAULT_SKETCH_K};
pub use telemetry::{
    CounterEntry, GaugeEntry, Histogram, HistogramEntry, HistogramError, Series, SeriesEntry,
    Telemetry, TelemetrySnapshot, DEFAULT_SERIES_CAP,
};
