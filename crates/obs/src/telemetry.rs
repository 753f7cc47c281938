//! The workspace telemetry recorder: counters, gauges, time-series, and
//! fixed-bin histograms, all recorded against virtual time and
//! exportable as a byte-stable JSON snapshot.
//!
//! This module moved here from `acorn-events` (which re-exports it for
//! compatibility) so that events, sim, and bench binaries share one set
//! of metric types and one snapshot format. Everything lives in
//! `BTreeMap`s keyed by metric name, so snapshot output order is
//! lexicographic — never hash order — and two deterministic runs produce
//! byte-identical JSON. Histogram `min`/`max` are `Option<f64>` rather
//! than NaN sentinels, which keeps [`TelemetrySnapshot`] meaningfully
//! `PartialEq` (and serializes as `null` for an empty histogram instead
//! of an unparseable NaN).
//!
//! Two behaviours changed in the move, both bugfixes:
//!
//! * [`Histogram::observe`] no longer panics on NaN. The fault layer
//!   deliberately injects NaN measurements, and one unguarded
//!   observation used to abort a whole resilience run; a NaN is now
//!   counted in [`Histogram::nan_rejected`] (surfaced in snapshots) and
//!   otherwise ignored.
//! * [`Histogram::linear`] / [`Histogram::with_edges`] return a typed
//!   [`HistogramError`] instead of asserting on bad bounds.

use crate::sketch::{QuantileSketch, SketchEntry};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Per-series sample capacity. Generous enough that every short-horizon
/// scenario keeps its full history (the longest series the repo records
/// outside soak runs is a few thousand samples), yet it bounds a
/// multi-day soak's telemetry at ~2 MB per series instead of
/// O(horizon).
pub const DEFAULT_SERIES_CAP: usize = 65_536;

/// Why a histogram could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum HistogramError {
    /// `with_edges` needs at least two edges to define one bin.
    TooFewEdges {
        /// How many edges were supplied.
        got: usize,
    },
    /// Edges must be finite and strictly increasing.
    EdgesNotIncreasing,
    /// `linear` needs at least one bin.
    ZeroBins,
    /// `linear` needs a finite range with `lo < hi`.
    InvalidRange {
        /// Requested lower edge.
        lo: f64,
        /// Requested upper edge.
        hi: f64,
    },
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::TooFewEdges { got } => {
                write!(f, "histogram needs at least two edges, got {got}")
            }
            HistogramError::EdgesNotIncreasing => {
                write!(f, "histogram edges must be finite and strictly increasing")
            }
            HistogramError::ZeroBins => write!(f, "histogram needs at least one bin"),
            HistogramError::InvalidRange { lo, hi } => {
                write!(
                    f,
                    "histogram range must be finite with lo < hi, got [{lo}, {hi})"
                )
            }
        }
    }
}

impl std::error::Error for HistogramError {}

/// A fixed-bin histogram over `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bin edges, strictly increasing; observation `x` lands in bin `i`
    /// iff `edges[i] <= x < edges[i+1]`. Values outside the edge range go
    /// to the under/overflow counts.
    pub edges: Vec<f64>,
    /// One count per bin (`edges.len() - 1` of them).
    pub counts: Vec<u64>,
    /// Observations below `edges[0]`.
    pub underflow: u64,
    /// Observations at or above `edges.last()`.
    pub overflow: u64,
    /// Total observations (including under/overflow, excluding NaN).
    pub count: u64,
    /// Running sum of observations.
    pub sum: f64,
    /// Smallest observation so far, if any.
    pub min: Option<f64>,
    /// Largest observation so far, if any.
    pub max: Option<f64>,
    /// NaN observations rejected (counted, never binned: a NaN carries
    /// no magnitude, but silently dropping it would hide model bugs and
    /// panicking on it lets injected faults abort whole runs).
    pub nan_rejected: u64,
}

impl Histogram {
    /// A histogram with the given bin edges (at least two, strictly
    /// increasing and finite).
    pub fn with_edges(edges: Vec<f64>) -> Result<Histogram, HistogramError> {
        if edges.len() < 2 {
            return Err(HistogramError::TooFewEdges { got: edges.len() });
        }
        if !edges
            .windows(2)
            .all(|w| w[0] < w[1] && w[0].is_finite() && w[1].is_finite())
        {
            return Err(HistogramError::EdgesNotIncreasing);
        }
        let bins = edges.len() - 1;
        Ok(Histogram {
            edges,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            nan_rejected: 0,
        })
    }

    /// `n` equal-width bins spanning `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Result<Histogram, HistogramError> {
        if n < 1 {
            return Err(HistogramError::ZeroBins);
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(HistogramError::InvalidRange { lo, hi });
        }
        let w = (hi - lo) / n as f64;
        Self::with_edges((0..=n).map(|i| lo + w * i as f64).collect())
    }

    /// Records one observation. NaN is counted in
    /// [`nan_rejected`](Histogram::nan_rejected) and otherwise ignored;
    /// ±∞ land in the under/overflow counts like any other out-of-range
    /// value. Never panics.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            self.nan_rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
        if x < self.edges[0] {
            self.underflow += 1;
        } else if x >= *self.edges.last().expect("histogram has >= 2 edges") {
            self.overflow += 1;
        } else {
            // Binary search for the bin: first edge strictly above x.
            let i = self.edges.partition_point(|e| *e <= x) - 1;
            self.counts[i] += 1;
        }
    }

    /// Mean of all (non-NaN) observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Folds another histogram into this one. Requires identical edges
    /// (bit-for-bit); returns `false` and leaves `self` untouched when
    /// the edges differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.edges.len() != other.edges.len()
            || !self
                .edges
                .iter()
                .zip(&other.edges)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.nan_rejected += other.nan_rejected;
        true
    }
}

/// One (time, value) series, capped at [`DEFAULT_SERIES_CAP`] = `c`: the
/// series keeps between `c` and `2c` of the *most recent* samples
/// (eviction drops the oldest half-window in one amortized-O(1) memmove
/// rather than shifting per push), and
/// [`total`](Series::total) keeps counting everything ever recorded —
/// so bounded memory never silently masquerades as a short run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Sample times (s, virtual) — the retained window.
    pub times_s: Vec<f64>,
    /// Sample values — the retained window.
    pub values: Vec<f64>,
    /// Samples ever recorded, including evicted ones.
    total: u64,
}

impl Series {
    /// Samples ever recorded (≥ `values.len()` once eviction starts).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// True once eviction has dropped at least one sample.
    pub fn is_truncated(&self) -> bool {
        self.total > self.values.len() as u64
    }

    fn push(&mut self, t_s: f64, value: f64) {
        self.total += 1;
        self.times_s.push(t_s);
        self.values.push(value);
        self.enforce_cap();
    }

    fn enforce_cap(&mut self) {
        let cap = DEFAULT_SERIES_CAP;
        if self.values.len() >= cap * 2 {
            let drop = self.values.len() - cap;
            self.times_s.drain(..drop);
            self.values.drain(..drop);
            self.times_s.shrink_to(cap * 2);
            self.values.shrink_to(cap * 2);
        }
    }
}

/// Applies `write` to the metric under `name`, first inserting `new()`
/// under an owned key when the name is new: a write to a known metric
/// allocates nothing.
fn upsert<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    new: impl FnOnce() -> V,
    write: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => write(v),
        None => {
            let mut v = new();
            write(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// The telemetry recorder processes and sinks write into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Series>,
    histograms: BTreeMap<String, Histogram>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl Telemetry {
    /// An empty recorder (series capped at [`DEFAULT_SERIES_CAP`]).
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Increments a counter by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, name: &str, n: u64) {
        upsert(&mut self.counters, name, || 0, |c| *c += n);
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        upsert(&mut self.gauges, name, || value, |g| *g = value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Appends a (time, value) sample to a series (evicting the oldest
    /// window once [`DEFAULT_SERIES_CAP`] is exceeded).
    pub fn record(&mut self, name: &str, t_s: f64, value: f64) {
        upsert(&mut self.series, name, Series::default, |s| {
            s.push(t_s, value)
        });
    }

    /// Reads a series.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Registers a histogram under `name` (replacing any existing one).
    pub fn register_histogram(&mut self, name: &str, hist: Histogram) {
        self.histograms.insert(name.to_string(), hist);
    }

    /// Records an observation into a registered histogram; auto-registers
    /// a default one (64 linear bins over `[0, 1)`) if the name is new,
    /// so ad-hoc metrics still land somewhere visible.
    pub fn observe(&mut self, name: &str, x: f64) {
        upsert(
            &mut self.histograms,
            name,
            || Histogram::linear(0.0, 1.0, 64).expect("static default histogram bounds"),
            |h| h.observe(x),
        );
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Registers a quantile sketch under `name` (replacing any existing
    /// one).
    pub fn register_sketch(&mut self, name: &str, sketch: QuantileSketch) {
        self.sketches.insert(name.to_string(), sketch);
    }

    /// Records an observation into a registered sketch; auto-registers a
    /// default-capacity one when the name is new. NaN is counted in the
    /// sketch's `nan_rejected`, matching the histogram policy.
    pub fn sketch_observe(&mut self, name: &str, x: f64) {
        upsert(&mut self.sketches, name, QuantileSketch::default, |s| {
            s.observe(x)
        });
    }

    /// Reads a sketch.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// True when nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.series.is_empty()
            && self.histograms.is_empty()
            && self.sketches.is_empty()
    }

    /// Folds another recorder into this one: counters add, gauges take
    /// the incoming (latest) value, series append, histograms merge when
    /// the edges match bit-for-bit and are replaced otherwise. Used to
    /// drain an ephemeral [`RecordingSink`](crate::RecordingSink) into a
    /// long-lived recorder.
    pub fn absorb(&mut self, other: Telemetry) {
        for (name, n) in other.counters {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, v) in other.gauges {
            self.gauges.insert(name, v);
        }
        for (name, s) in other.series {
            let dst = self.series.entry(name).or_default();
            dst.times_s.extend_from_slice(&s.times_s);
            dst.values.extend_from_slice(&s.values);
            dst.total += s.total;
            dst.enforce_cap();
        }
        for (name, h) in other.histograms {
            let merged = self
                .histograms
                .get_mut(&name)
                .is_some_and(|dst| dst.merge(&h));
            if !merged {
                self.histograms.insert(name, h);
            }
        }
        for (name, s) in other.sketches {
            let merged = self
                .sketches
                .get_mut(&name)
                .is_some_and(|dst| dst.merge(&s));
            if !merged {
                self.sketches.insert(name, s);
            }
        }
    }

    /// Freezes the recorder into a serializable snapshot (metrics in
    /// lexicographic name order).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| CounterEntry {
                    name: k.clone(),
                    value: *v,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| GaugeEntry {
                    name: k.clone(),
                    value: *v,
                })
                .collect(),
            series: self
                .series
                .iter()
                .map(|(k, s)| SeriesEntry {
                    name: k.clone(),
                    times_s: s.times_s.clone(),
                    values: s.values.clone(),
                    total: s.total,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| HistogramEntry {
                    name: k.clone(),
                    edges: h.edges.clone(),
                    counts: h.counts.clone(),
                    underflow: h.underflow,
                    overflow: h.overflow,
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    nan_rejected: h.nan_rejected,
                })
                .collect(),
            sketches: self.sketches.iter().map(|(k, s)| s.entry(k)).collect(),
        }
    }
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Latest value.
    pub value: f64,
}

/// Snapshot of one time-series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesEntry {
    /// Metric name.
    pub name: String,
    /// Sample times (s) — the retained window.
    pub times_s: Vec<f64>,
    /// Sample values — the retained window.
    pub values: Vec<f64>,
    /// Samples ever recorded (> `values.len()` once the series cap
    /// evicted history).
    pub total: u64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Bin edges.
    pub edges: Vec<f64>,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Observations below the first edge.
    pub underflow: u64,
    /// Observations at or above the last edge.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`null` when empty).
    pub min: Option<f64>,
    /// Largest observation (`null` when empty).
    pub max: Option<f64>,
    /// NaN observations rejected instead of binned.
    pub nan_rejected: u64,
}

/// A frozen, serializable view of a [`Telemetry`] recorder. Field order
/// and metric order are deterministic, so two identical runs produce
/// byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// All counters, by name.
    pub counters: Vec<CounterEntry>,
    /// All gauges, by name.
    pub gauges: Vec<GaugeEntry>,
    /// All series, by name.
    pub series: Vec<SeriesEntry>,
    /// All histograms, by name.
    pub histograms: Vec<HistogramEntry>,
    /// All quantile sketches, by name.
    pub sketches: Vec<SketchEntry>,
}

impl TelemetrySnapshot {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Writes the snapshot as JSON to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Telemetry::new();
        t.inc("events");
        t.add("events", 4);
        assert_eq!(t.counter("events"), 5);
        assert_eq!(t.counter("never"), 0);
    }

    #[test]
    fn gauges_keep_latest() {
        let mut t = Telemetry::new();
        t.set_gauge("bps", 1.0);
        t.set_gauge("bps", 2.5);
        assert_eq!(t.gauge("bps"), Some(2.5));
    }

    #[test]
    fn series_append_in_order() {
        let mut t = Telemetry::new();
        t.record("thr", 1.0, 10.0);
        t.record("thr", 2.0, 20.0);
        let s = t.series("thr").unwrap();
        assert_eq!(s.times_s, vec![1.0, 2.0]);
        assert_eq!(s.values, vec![10.0, 20.0]);
    }

    #[test]
    fn histogram_binning_and_overflow() {
        let mut h = Histogram::linear(0.0, 10.0, 5).unwrap(); // bins of width 2
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 100.0] {
            h.observe(x);
        }
        assert_eq!(h.counts, vec![2, 1, 0, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count, 7);
        assert_eq!(h.min, Some(-1.0));
        assert_eq!(h.max, Some(100.0));
    }

    #[test]
    fn histogram_edge_boundaries_are_half_open() {
        let mut h = Histogram::with_edges(vec![0.0, 1.0, 2.0]).unwrap();
        h.observe(1.0); // belongs to the second bin, not the first
        assert_eq!(h.counts, vec![0, 1]);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::linear(0.0, 1.0, 4).unwrap();
        assert_eq!(h.min, None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn nan_observation_is_counted_not_fatal() {
        let mut h = Histogram::linear(0.0, 1.0, 2).unwrap();
        h.observe(f64::NAN);
        h.observe(0.5);
        h.observe(f64::NAN);
        assert_eq!(h.nan_rejected, 2);
        assert_eq!(h.count, 1);
        assert_eq!(h.counts, vec![0, 1]);
        assert_eq!(h.min, Some(0.5));
        assert_eq!(h.mean(), Some(0.5));
    }

    #[test]
    fn infinities_land_in_overflow_counts() {
        let mut h = Histogram::linear(0.0, 1.0, 2).unwrap();
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn bad_bounds_are_typed_errors_not_panics() {
        assert_eq!(
            Histogram::linear(0.0, 1.0, 0).unwrap_err(),
            HistogramError::ZeroBins
        );
        assert!(matches!(
            Histogram::linear(1.0, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange { .. }
        ));
        assert!(matches!(
            Histogram::linear(0.0, f64::NAN, 4).unwrap_err(),
            HistogramError::InvalidRange { .. }
        ));
        assert_eq!(
            Histogram::with_edges(vec![1.0]).unwrap_err(),
            HistogramError::TooFewEdges { got: 1 }
        );
        assert_eq!(
            Histogram::with_edges(vec![0.0, 0.0]).unwrap_err(),
            HistogramError::EdgesNotIncreasing
        );
        assert_eq!(
            Histogram::with_edges(vec![0.0, f64::INFINITY]).unwrap_err(),
            HistogramError::EdgesNotIncreasing
        );
    }

    #[test]
    fn absorb_merges_all_metric_kinds() {
        let mut a = Telemetry::new();
        a.add("n", 2);
        a.set_gauge("g", 1.0);
        a.record("s", 0.0, 1.0);
        a.register_histogram("h", Histogram::linear(0.0, 4.0, 2).unwrap());
        a.observe("h", 1.0);

        let mut b = Telemetry::new();
        b.add("n", 3);
        b.set_gauge("g", 9.0);
        b.record("s", 1.0, 2.0);
        b.register_histogram("h", Histogram::linear(0.0, 4.0, 2).unwrap());
        b.observe("h", 3.0);
        b.observe("h", f64::NAN);

        a.absorb(b);
        assert_eq!(a.counter("n"), 5);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.series("s").unwrap().times_s, vec![0.0, 1.0]);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.counts, vec![1, 1]);
        assert_eq!(h.count, 2);
        assert_eq!(h.nan_rejected, 1);
    }

    #[test]
    fn absorb_replaces_histograms_with_different_edges() {
        let mut a = Telemetry::new();
        a.register_histogram("h", Histogram::linear(0.0, 4.0, 2).unwrap());
        a.observe("h", 1.0);
        let mut b = Telemetry::new();
        b.register_histogram("h", Histogram::linear(0.0, 8.0, 4).unwrap());
        b.observe("h", 5.0);
        a.absorb(b);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.edges.len(), 5);
        assert_eq!(h.count, 1);
    }

    #[test]
    fn snapshot_is_deterministic_json() {
        let mut t = Telemetry::new();
        // Insert in non-lexicographic order; snapshot must sort.
        t.inc("zeta");
        t.inc("alpha");
        t.set_gauge("g", 1.5);
        t.record("s", 0.5, 2.0);
        t.register_histogram("h", Histogram::linear(0.0, 4.0, 2).unwrap());
        t.observe("h", 1.0);
        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a, b);
        let json = a.to_json();
        assert!(json.find("\"alpha\"").unwrap() < json.find("\"zeta\"").unwrap());
        // Empty histogram min/max serialize as null, not NaN.
        t.register_histogram("empty", Histogram::linear(0.0, 1.0, 2).unwrap());
        assert!(t.snapshot().to_json().contains("null"));
    }

    #[test]
    fn series_cap_keeps_recent_window_and_counts_total() {
        const CAP: usize = DEFAULT_SERIES_CAP;
        let n = 2 * CAP + 5;
        let mut t = Telemetry::new();
        for i in 0..n {
            t.record("s", i as f64, 2.0 * i as f64);
        }
        let s = t.series("s").unwrap();
        assert_eq!(s.total(), n as u64);
        assert!(s.is_truncated());
        assert!(
            (CAP..2 * CAP).contains(&s.len()),
            "len {} out of [cap, 2cap)",
            s.len()
        );
        // The retained window is the most recent samples, in order.
        let last = *s.times_s.last().unwrap();
        assert_eq!(last, (n - 1) as f64);
        assert!(s.times_s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*s.values.last().unwrap(), 2.0 * (n - 1) as f64);
    }

    #[test]
    fn series_below_twice_the_cap_keeps_every_sample() {
        let mut t = Telemetry::new();
        for i in 0..(2 * DEFAULT_SERIES_CAP - 1) {
            t.record("s", i as f64, 0.0);
        }
        let s = t.series("s").unwrap();
        assert_eq!(s.len() as u64, s.total());
        assert!(!s.is_truncated());
    }

    #[test]
    fn absorb_preserves_series_totals_under_cap() {
        const CAP: usize = DEFAULT_SERIES_CAP;
        // Both inputs have already evicted samples, so the merged total
        // must count what each side dropped, not just what it retained.
        let (na, nb) = (2 * CAP + 7, 2 * CAP + 11);
        let mut a = Telemetry::new();
        for i in 0..na {
            a.record("s", i as f64, 0.0);
        }
        let mut b = Telemetry::new();
        for i in na..na + nb {
            b.record("s", i as f64, 0.0);
        }
        let (sa, sb) = (a.series("s").unwrap(), b.series("s").unwrap());
        assert!(sa.is_truncated() && sb.is_truncated());
        let (ta, tb) = (sa.total(), sb.total());
        assert_eq!((ta, tb), (na as u64, nb as u64));
        a.absorb(b);
        let s = a.series("s").unwrap();
        assert_eq!(s.total(), ta + tb);
        assert!(
            (CAP..2 * CAP).contains(&s.len()),
            "len {} out of [cap, 2cap)",
            s.len()
        );
        assert_eq!(*s.times_s.last().unwrap(), (na + nb - 1) as f64);
    }

    #[test]
    fn sketches_record_merge_and_snapshot() {
        let mut a = Telemetry::new();
        for i in 0..100 {
            a.sketch_observe("lat", i as f64);
        }
        a.sketch_observe("lat", f64::NAN);
        let mut b = Telemetry::new();
        for i in 100..200 {
            b.sketch_observe("lat", i as f64);
        }
        a.absorb(b);
        let s = a.sketch("lat").unwrap();
        assert_eq!(s.count(), 200);
        assert_eq!(s.nan_rejected(), 1);
        let snap = a.snapshot();
        assert_eq!(snap.sketches.len(), 1);
        assert_eq!(snap.sketches[0].name, "lat");
        assert_eq!(snap.sketches[0].count, 200);
        assert!(snap.to_json().contains("\"p99\""));
    }

    #[test]
    fn snapshot_roundtrips_equability() {
        let mut t = Telemetry::new();
        t.observe("lat", 0.25);
        let s1 = t.snapshot();
        t.observe("lat", 0.75);
        let s2 = t.snapshot();
        assert_ne!(s1, s2);
    }
}
