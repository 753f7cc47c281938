//! The network throughput model ACORN's algorithms optimize over.
//!
//! Algorithm 2 repeatedly asks: *if AP `i` moved to channel `c` while
//! everyone else stayed put, what would the aggregate network throughput
//! be?* (line 10 of the pseudocode). Answering that requires exactly two
//! ingredients, both from the paper:
//!
//! 1. the AP's channel-access share `M_a = 1/(|con_a|+1)` given the
//!    interference graph and the hypothetical assignment (§5.1), and
//! 2. each client's goodput at the hypothetical width, predicted by the
//!    §4.2 estimator (SNR ± 3 dB calibration → coded BER → PER), fed into
//!    the performance-anomaly airtime model (§4.1).
//!
//! [`NetworkModel`] packages those ingredients behind the
//! [`ThroughputModel`] trait so the allocation algorithm (and the
//! baselines) stay independent of how throughputs are predicted.

use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::{access_share, access_share_with};
use acorn_obs::{names, Sink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::{ChannelWidth, GoodputTable};
use acorn_topology::{ApId, ChannelAssignment, InterferenceGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluation counters a [`NetworkModel`] maintains about itself:
/// throughput-table rebuilds, O(Δ) delta evaluations, and hoisted
/// colour scans. Kept as relaxed atomics so the instrumented model
/// stays `Sync` and the counts stay exact under the parallel evaluation
/// engine — relaxed `u64` adds commute, so totals are invariant to the
/// thread count and never perturb the determinism contract.
#[derive(Debug, Default)]
pub struct ModelStats {
    rebuilds: AtomicU64,
    delta_evals: AtomicU64,
    best_switch_scans: AtomicU64,
}

/// A point-in-time copy of [`ModelStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStatsSnapshot {
    /// Full `cell_base_bps` table rebuilds.
    pub rebuilds: u64,
    /// Colour-candidate evaluations served from the cached table (one
    /// per `delta_bps` call or per colour in a hoisted scan).
    pub delta_evals: u64,
    /// Hoisted `best_switch` scans.
    pub best_switch_scans: u64,
}

impl ModelStats {
    fn add_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    fn add_delta_evals(&self, n: u64) {
        self.delta_evals.fetch_add(n, Ordering::Relaxed);
    }

    fn add_best_switch_scan(&self) {
        self.best_switch_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current counter values.
    pub fn snapshot(&self) -> ModelStatsSnapshot {
        ModelStatsSnapshot {
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            delta_evals: self.delta_evals.load(Ordering::Relaxed),
            best_switch_scans: self.best_switch_scans.load(Ordering::Relaxed),
        }
    }

    /// Reads and zeroes the counters (for periodic flushes into a sink).
    pub fn take(&self) -> ModelStatsSnapshot {
        ModelStatsSnapshot {
            rebuilds: self.rebuilds.swap(0, Ordering::Relaxed),
            delta_evals: self.delta_evals.swap(0, Ordering::Relaxed),
            best_switch_scans: self.best_switch_scans.swap(0, Ordering::Relaxed),
        }
    }

    /// Reads, zeroes, and reports the counters into a metric sink under
    /// the `model.*` names. Call from sequential contexts only (the
    /// counts themselves are thread-exact; the *flush* is a read-reset).
    pub fn flush_into<S: Sink>(&self, sink: &S) {
        if !sink.enabled() {
            return;
        }
        let s = self.take();
        sink.add(names::MODEL_REBUILDS, s.rebuilds);
        sink.add(names::MODEL_DELTA_EVALS, s.delta_evals);
        sink.add(names::MODEL_BEST_SWITCH_SCANS, s.best_switch_scans);
    }
}

impl Clone for ModelStats {
    fn clone(&self) -> ModelStats {
        let s = self.snapshot();
        ModelStats {
            rebuilds: AtomicU64::new(s.rebuilds),
            delta_evals: AtomicU64::new(s.delta_evals),
            best_switch_scans: AtomicU64::new(s.best_switch_scans),
        }
    }
}

/// Per-attach flush cursor over a shared [`GoodputTable`]'s *cumulative*
/// counters. The table itself is never drained (its counters only grow, so
/// any number of models can share one `Arc` without stealing each other's
/// counts — the DESIGN.md §13.3 footgun); instead each model remembers the
/// last values it flushed and reports deltas. The cursor starts at the
/// table's hit/miss counts as of the attach but at **zero** rebuilds, so a
/// model adopting an already-built table still surfaces the build cost
/// once, in its own first flush, while the traffic counters cover only
/// lookups made while this model was attached.
#[derive(Debug)]
struct TableFlushCursor {
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
}

impl TableFlushCursor {
    fn at_attach(table: Option<&Arc<GoodputTable>>) -> TableFlushCursor {
        let (hits, misses) = match table {
            Some(t) => {
                let s = t.stats();
                (s.hits, s.misses)
            }
            None => (0, 0),
        };
        TableFlushCursor {
            hits: AtomicU64::new(hits),
            misses: AtomicU64::new(misses),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Advances one counter to `now` and returns the delta since the last
    /// flush. Flushes are sequential-context-only, so the load/swap pair
    /// never races another flush of the same cursor.
    fn advance(slot: &AtomicU64, now: u64) -> u64 {
        now.saturating_sub(slot.swap(now, Ordering::Relaxed))
    }
}

impl Clone for TableFlushCursor {
    fn clone(&self) -> TableFlushCursor {
        TableFlushCursor {
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            rebuilds: AtomicU64::new(self.rebuilds.load(Ordering::Relaxed)),
        }
    }
}

/// Anything that can score a full channel assignment.
pub trait ThroughputModel {
    /// Number of APs.
    fn n_aps(&self) -> usize;

    /// Predicted long-term throughput of one AP's cell under a full
    /// network assignment (bits/s).
    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64;

    /// Predicted aggregate network throughput `Y = Σ X_i` (bits/s) — the
    /// objective of Eq. 5.
    fn total_bps(&self, assignments: &[ChannelAssignment]) -> f64 {
        (0..self.n_aps())
            .map(|i| self.ap_throughput_bps(ApId(i), assignments))
            .sum()
    }

    /// Change in `total_bps` if `ap` switched from its current colour in
    /// `assignments` to `colour`, everyone else frozen — the quantity
    /// Algorithm 2's candidate ranking actually needs. The default
    /// implementation recomputes both totals; models that know which
    /// cells a switch can affect should override it (see
    /// [`NetworkModel`]'s O(Δ) version).
    fn delta_bps(
        &self,
        ap: ApId,
        colour: ChannelAssignment,
        assignments: &[ChannelAssignment],
    ) -> f64 {
        if assignments[ap.0] == colour {
            return 0.0;
        }
        let mut alt = assignments.to_vec();
        alt[ap.0] = colour;
        self.total_bps(&alt) - self.total_bps(assignments)
    }

    /// The best colour for `ap` with everyone else frozen, and its gain —
    /// one candidate ranking of Algorithm 2's inner loop. Ties keep the
    /// first colour in `colours` (matching the sequential scan). An empty
    /// colour set degrades to "stay put" (current colour, zero gain)
    /// rather than aborting. The default scans via
    /// [`delta_bps`](ThroughputModel::delta_bps); models that can share
    /// work across the colour scan should override it (see
    /// [`NetworkModel`]'s hoisted version).
    fn best_switch(
        &self,
        ap: ApId,
        colours: &[ChannelAssignment],
        assignments: &[ChannelAssignment],
    ) -> (ChannelAssignment, f64) {
        let mut best: Option<(ChannelAssignment, f64)> = None;
        for &c in colours {
            let gain = self.delta_bps(ap, c, assignments);
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((c, gain)),
            }
        }
        best.unwrap_or((assignments[ap.0], 0.0))
    }
}

/// One client as the model sees it: its 20 MHz-referenced SNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSnr {
    /// Global client index (for bookkeeping; not used in the math).
    pub client: usize,
    /// Per-subcarrier SNR the client would see on a 20 MHz channel (dB).
    pub snr20_db: f64,
}

/// The concrete model: interference graph + per-cell client SNRs +
/// estimator.
///
/// A cell's throughput at a width is independent of the rest of the
/// assignment and *linear* in the access share `M` (`X = M·K·L/ATD`), so
/// the model precomputes the `M = 1` value for every (AP, width) pair
/// into a dense table at construction — Algorithm 2 evaluates candidates
/// thousands of times per run and would otherwise re-derive every
/// client's MCS/PER pipeline each time. The model is built once from its
/// inputs and never mutated in place (a changed deployment builds a new
/// model), so the table is always consistent, the model holds no
/// interior mutability, and it is `Sync` — the parallel evaluation
/// engine shares it across threads.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// AP-level interference graph (footnote 5 semantics).
    pub graph: InterferenceGraph,
    cells: Vec<Vec<ClientSnr>>,
    estimator: LinkQualityEstimator,
    payload_bytes: u32,
    /// Dense `M = 1` cell throughput, indexed `[ap * 2 + width_index]`.
    cell_base: Vec<f64>,
    /// Optional memoized goodput table; when present, `client_link` (and
    /// hence the `cell_base` build) answers from the table instead of
    /// running the exact union-bound search per client. Shared by `Arc`
    /// so model clones (and per-shard submodels) reuse one build and one
    /// set of hit/miss counters.
    table: Option<Arc<GoodputTable>>,
    /// Where this model's last flush left off in the shared table's
    /// cumulative counters (see [`TableFlushCursor`]).
    table_cursor: TableFlushCursor,
    stats: ModelStats,
}

fn width_index(width: ChannelWidth) -> usize {
    match width {
        ChannelWidth::Ht20 => 0,
        ChannelWidth::Ht40 => 1,
    }
}

impl NetworkModel {
    /// Creates a model; `cells[i]` lists AP i's associated clients.
    pub fn new(graph: InterferenceGraph, cells: Vec<Vec<ClientSnr>>) -> NetworkModel {
        NetworkModel::with_config(graph, cells, LinkQualityEstimator::default(), 1500)
    }

    /// Creates a model with a non-default estimator or payload size.
    pub fn with_config(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        estimator: LinkQualityEstimator,
        payload_bytes: u32,
    ) -> NetworkModel {
        assert_eq!(graph.len(), cells.len(), "one cell per AP");
        let mut model = NetworkModel {
            graph,
            cells,
            estimator,
            payload_bytes,
            cell_base: Vec::new(),
            table: None,
            table_cursor: TableFlushCursor::at_attach(None),
            stats: ModelStats::default(),
        };
        model.rebuild_cell_base();
        model
    }

    /// Creates a model whose per-client rate/PER predictions come from a
    /// prebuilt memoized [`GoodputTable`] instead of per-call exact
    /// union-bound searches. The table must have been built from the same
    /// estimator configuration (same packet size, GI, fading model), or
    /// predictions would silently mix two error models.
    pub fn with_table(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        table: Arc<GoodputTable>,
        payload_bytes: u32,
    ) -> NetworkModel {
        assert_eq!(graph.len(), cells.len(), "one cell per AP");
        let estimator = *table.estimator();
        let table_cursor = TableFlushCursor::at_attach(Some(&table));
        let mut model = NetworkModel {
            graph,
            cells,
            estimator,
            payload_bytes,
            cell_base: Vec::new(),
            table: Some(table),
            table_cursor,
            stats: ModelStats::default(),
        };
        model.rebuild_cell_base();
        model
    }

    /// Clients associated with each AP.
    pub fn cells(&self) -> &[Vec<ClientSnr>] {
        &self.cells
    }

    /// The §4.2 link-quality estimator.
    pub fn estimator(&self) -> &LinkQualityEstimator {
        &self.estimator
    }

    /// Payload size for airtime accounting (bytes).
    pub fn payload_bytes(&self) -> u32 {
        self.payload_bytes
    }

    /// The memoized goodput table, when one is attached.
    pub fn table(&self) -> Option<&Arc<GoodputTable>> {
        self.table.as_ref()
    }

    /// The model's own evaluation counters (rebuilds, delta evals,
    /// hoisted scans) — flush into a sink with
    /// [`ModelStats::flush_into`] from a sequential context.
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }

    /// Flushes the model counters *and*, when a table is attached, the
    /// model's view of its hit/miss/rebuild counters (plus the
    /// max-quantization-error gauge) into a sink under the `model.*` /
    /// `phy.table.*` names. Call from sequential contexts only.
    ///
    /// The shared table's counters are **cumulative and never reset**;
    /// this flush reports the delta since this model's previous flush via
    /// a per-attach cursor, so any number of models — including two
    /// sequential runs sharing one `Arc<GoodputTable>` — report their own
    /// traffic (and the one build, exactly once each) without draining
    /// each other's counts.
    pub fn flush_stats_into<S: Sink>(&self, sink: &S) {
        self.stats.flush_into(sink);
        if let Some(t) = &self.table {
            if sink.enabled() {
                let s = t.stats();
                let c = &self.table_cursor;
                sink.add(
                    names::TABLE_HITS,
                    TableFlushCursor::advance(&c.hits, s.hits),
                );
                sink.add(
                    names::TABLE_MISSES,
                    TableFlushCursor::advance(&c.misses, s.misses),
                );
                sink.add(
                    names::TABLE_REBUILDS,
                    TableFlushCursor::advance(&c.rebuilds, s.rebuilds),
                );
                sink.gauge(names::TABLE_MAX_QUANT_ERROR, s.max_quant_error_bps);
            }
        }
    }

    /// The submodel induced by a subset of APs (`nodes`, strictly
    /// ascending): the vertex-induced subgraph reindexed to `0..k`, the
    /// corresponding cells, and — crucially — the corresponding rows of
    /// the precomputed `cell_base` table *copied, not re-estimated*, so
    /// restriction is O(k·Δ) and every per-shard throughput term is
    /// bit-identical to the full model's. The sharded allocation path
    /// solves each connected component on such a submodel.
    pub fn restrict(&self, nodes: &[usize]) -> NetworkModel {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "restrict nodes must ascend"
        );
        assert!(
            nodes.last().is_none_or(|&last| last < self.graph.len()),
            "restrict node out of range"
        );
        let mut graph = InterferenceGraph::new(nodes.len());
        let mut cells = Vec::with_capacity(nodes.len());
        let mut cell_base = Vec::with_capacity(nodes.len() * 2);
        for (new, &old) in nodes.iter().enumerate() {
            for nb in self.graph.neighbors(ApId(old)).filter(|nb| nb.0 > old) {
                if let Ok(mapped) = nodes.binary_search(&nb.0) {
                    graph.add_edge(ApId(new), ApId(mapped));
                }
            }
            cells.push(self.cells[old].clone());
            cell_base.push(self.cell_base[old * 2]);
            cell_base.push(self.cell_base[old * 2 + 1]);
        }
        NetworkModel {
            graph,
            cells,
            estimator: self.estimator,
            payload_bytes: self.payload_bytes,
            cell_base,
            table: self.table.clone(),
            table_cursor: self.table_cursor.clone(),
            stats: ModelStats::default(),
        }
    }

    fn rebuild_cell_base(&mut self) {
        self.stats.add_rebuild();
        let n = self.cells.len();
        let mut table = vec![0.0; n * 2];
        for ap in 0..n {
            for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                table[ap * 2 + width_index(width)] =
                    self.cell_airtime(ApId(ap), width).cell_throughput_bps(1.0);
            }
        }
        self.cell_base = table;
    }

    /// The precomputed contention-free (`M = 1`) cell throughput.
    pub fn cell_base_bps(&self, ap: ApId, width: ChannelWidth) -> f64 {
        self.cell_base[ap.0 * 2 + width_index(width)]
    }

    /// Predicts the MAC-layer operating point of a client at a width —
    /// through the memoized table when one is attached, the exact §4.2
    /// pipeline otherwise. Either way only the asked width is searched.
    pub fn client_link(&self, snr20_db: f64, width: ChannelWidth) -> ClientLink {
        let snr = self
            .estimator
            .calibrate_snr(snr20_db, ChannelWidth::Ht20, width);
        let point = match &self.table {
            Some(t) => t.rate_point(snr, width),
            None => self.estimator.best_rate_point(snr, width),
        };
        ClientLink {
            rate_bps: point.mcs.mcs().rate_bps(width, self.estimator.gi),
            per: point.per,
        }
    }

    /// The cell's airtime accounting at a width.
    pub fn cell_airtime(&self, ap: ApId, width: ChannelWidth) -> CellAirtime {
        let links: Vec<ClientLink> = self.cells[ap.0]
            .iter()
            .map(|c| self.client_link(c.snr20_db, width))
            .collect();
        CellAirtime::new(&links, self.payload_bytes)
    }

    /// Isolated (contention-free) cell throughput at a width — the
    /// `X_i^{isol-20/40}` of the NP-completeness argument and Fig. 14's
    /// `Y*` calibration.
    pub fn isolated_throughput_bps(&self, ap: ApId, width: ChannelWidth) -> f64 {
        self.cell_base_bps(ap, width)
    }

    /// `X_i^{isol} = max(X_i^{isol-20}, X_i^{isol-40})`.
    pub fn isolated_best_bps(&self, ap: ApId) -> f64 {
        self.isolated_throughput_bps(ap, ChannelWidth::Ht20)
            .max(self.isolated_throughput_bps(ap, ChannelWidth::Ht40))
    }
}

impl ThroughputModel for NetworkModel {
    fn n_aps(&self) -> usize {
        self.graph.len()
    }

    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64 {
        let m = access_share(&self.graph, assignments, ap);
        m.clamp(0.0, 1.0) * self.cell_base_bps(ap, assignments[ap.0].width())
    }

    /// O(Δ) evaluation: switching `ap` can only change the access shares
    /// of `ap` itself and its interference-graph neighbours (everyone
    /// else's contender set is untouched), and cell throughput is linear
    /// in the share, so the delta is a sum over that neighbourhood of
    /// `M_new·base − M_old·base` — each term exactly the difference of
    /// the corresponding [`ap_throughput_bps`](ThroughputModel::ap_throughput_bps)
    /// values.
    fn delta_bps(
        &self,
        ap: ApId,
        colour: ChannelAssignment,
        assignments: &[ChannelAssignment],
    ) -> f64 {
        self.stats.add_delta_evals(1);
        let current = assignments[ap.0];
        if current == colour {
            return 0.0;
        }
        let patch = (ap, colour);
        let m_new = access_share_with(&self.graph, assignments, ap, patch);
        let m_old = access_share(&self.graph, assignments, ap);
        let mut delta = m_new.clamp(0.0, 1.0) * self.cell_base_bps(ap, colour.width())
            - m_old.clamp(0.0, 1.0) * self.cell_base_bps(ap, current.width());
        for j in self.graph.neighbors(ap) {
            let m_new = access_share_with(&self.graph, assignments, j, patch);
            let m_old = access_share(&self.graph, assignments, j);
            if m_new != m_old {
                let base = self.cell_base_bps(j, assignments[j.0].width());
                delta += m_new.clamp(0.0, 1.0) * base - m_old.clamp(0.0, 1.0) * base;
            }
        }
        delta
    }

    /// The whole colour scan over per-channel neighbour sets. Once per
    /// scan, the AP's neighbours are numbered in ascending order (their
    /// *slots*) and grouped by the 20 MHz channels they occupy, one bit
    /// set per channel; and each neighbour's one possible term is taken:
    /// a switch can change only its edge to the AP, so a neighbour in
    /// conflict now can only lose it (`share(c−1)·base − share(c)·base`)
    /// and any other can only gain it (`share(c+1)·base − share(c)·base`).
    /// Two assignments conflict exactly when they share a channel, so per
    /// colour the AP's own conflict count is the size of the union of the
    /// colour's channel sets, and the neighbours whose edge changes are
    /// that union XOR the current colour's. Their terms are added in
    /// ascending slot order, which is neighbour order, the order
    /// [`delta_bps`](ThroughputModel::delta_bps) sums in, so every gain is
    /// bit-identical to the per-colour scan. The sets and terms live on
    /// the stack up to 64 neighbours and 64 channels, and on the heap
    /// beyond.
    fn best_switch(
        &self,
        ap: ApId,
        colours: &[ChannelAssignment],
        assignments: &[ChannelAssignment],
    ) -> (ChannelAssignment, f64) {
        self.stats.add_best_switch_scan();
        self.stats.add_delta_evals(colours.len() as u64);
        let current = assignments[ap.0];
        let share = |c: usize| (1.0 / (c as f64 + 1.0)).clamp(0.0, 1.0);
        let degree = self.graph.degree(ap);
        let blocks = degree.div_ceil(64);
        let n_channels = self
            .graph
            .neighbors(ap)
            .flat_map(|j| assignments[j.0].occupied())
            .map(|ch| ch.0 as usize + 1)
            .max()
            .unwrap_or(0);
        // Bit `slot % 64` of `sets[ch * blocks + slot / 64]`: the
        // neighbour in `slot` occupies channel `ch`.
        let (mut inline_sets, mut heap_sets) = ([0u64; 64], Vec::new());
        let sets = scratch(&mut inline_sets, &mut heap_sets, n_channels * blocks);
        let (mut inline_terms, mut heap_terms) = ([0f64; 64], Vec::new());
        let terms = scratch(&mut inline_terms, &mut heap_terms, degree);
        for (slot, j) in self.graph.neighbors(ap).enumerate() {
            let a_j = assignments[j.0];
            for ch in a_j.occupied() {
                sets[ch.0 as usize * blocks + slot / 64] |= 1 << (slot % 64);
            }
            let c_old = self
                .graph
                .neighbors(j)
                .filter(|&nb| a_j.conflicts(assignments[nb.0]))
                .count();
            let c_new = if a_j.conflicts(current) {
                c_old - 1
            } else {
                c_old + 1
            };
            let base = self.cell_base_bps(j, a_j.width());
            terms[slot] = share(c_new) * base - share(c_old) * base;
        }
        let (sets, terms) = (&*sets, &*terms);
        // Block `b` of the neighbours occupying any channel of `colour`.
        let union = |colour: ChannelAssignment, b: usize| {
            colour
                .occupied()
                .map(|ch| sets.get(ch.0 as usize * blocks + b).copied().unwrap_or(0))
                .fold(0u64, |u, set| u | set)
        };
        let conflicts = |colour| {
            (0..blocks)
                .map(|b| union(colour, b).count_ones() as usize)
                .sum::<usize>()
        };
        let x_i_old = share(conflicts(current)) * self.cell_base_bps(ap, current.width());
        // Adds the terms of the neighbours in `changed` (one block) to
        // `delta`, in ascending slot order.
        let add_terms = |mut delta: f64, block: usize, mut changed: u64| {
            while changed != 0 {
                delta += terms[block * 64 + changed.trailing_zeros() as usize];
                changed &= changed - 1;
            }
            delta
        };
        let current_0 = union(current, 0);

        let mut best: Option<(ChannelAssignment, f64)> = None;
        for &c in colours {
            let gain = if c == current {
                0.0
            } else if blocks == 1 {
                // Up to 64 neighbours: one block, the common case.
                let new = union(c, 0);
                let x_i_new = share(new.count_ones() as usize) * self.cell_base_bps(ap, c.width());
                add_terms(x_i_new - x_i_old, 0, new ^ current_0)
            } else {
                let x_i_new = share(conflicts(c)) * self.cell_base_bps(ap, c.width());
                (0..blocks).fold(x_i_new - x_i_old, |delta, b| {
                    add_terms(delta, b, union(c, b) ^ union(current, b))
                })
            };
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((c, gain)),
            }
        }
        best.unwrap_or((current, 0.0))
    }
}

/// `len` zeroed scratch slots: `inline` up to its 64, `heap` beyond.
fn scratch<'a, T: Copy + Default>(
    inline: &'a mut [T; 64],
    heap: &'a mut Vec<T>,
    len: usize,
) -> &'a mut [T] {
    if len <= inline.len() {
        &mut inline[..len]
    } else {
        heap.resize(len, T::default());
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_topology::Channel20;

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    fn bonded(c: u8) -> ChannelAssignment {
        ChannelAssignment::bonded(Channel20(c)).unwrap()
    }

    fn two_ap_model(snrs_a: &[f64], snrs_b: &[f64], connected: bool) -> NetworkModel {
        let graph = if connected {
            InterferenceGraph::complete(2)
        } else {
            InterferenceGraph::new(2)
        };
        let mk = |snrs: &[f64]| {
            snrs.iter()
                .enumerate()
                .map(|(i, &s)| ClientSnr {
                    client: i,
                    snr20_db: s,
                })
                .collect()
        };
        NetworkModel::new(graph, vec![mk(snrs_a), mk(snrs_b)])
    }

    #[test]
    fn strong_cell_prefers_bonding() {
        let m = two_ap_model(&[32.0, 30.0], &[], false);
        let t20 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht20);
        let t40 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40);
        assert!(t40 > 1.3 * t20, "t20 {t20:.3e} t40 {t40:.3e}");
    }

    #[test]
    fn weak_cell_prefers_20mhz() {
        let m = two_ap_model(&[1.0], &[], false);
        let t20 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht20);
        let t40 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40);
        assert!(t20 > t40, "t20 {t20:.3e} t40 {t40:.3e}");
    }

    #[test]
    fn contention_halves_cochannel_throughput() {
        let m = two_ap_model(&[25.0], &[25.0], true);
        let same = vec![single(0), single(0)];
        let diff = vec![single(0), single(1)];
        let y_same = m.total_bps(&same);
        let y_diff = m.total_bps(&diff);
        assert!((y_same * 2.0 - y_diff).abs() / y_diff < 1e-9);
    }

    #[test]
    fn bonded_overlap_contends() {
        // AP 0 bonded on {0,1}, AP 1 single on 1 → both share the medium.
        let m = two_ap_model(&[25.0], &[25.0], true);
        let overlap = vec![bonded(0), single(1)];
        let x1 = m.ap_throughput_bps(ApId(1), &overlap);
        let clear = vec![bonded(0), single(2)];
        let x1_clear = m.ap_throughput_bps(ApId(1), &clear);
        assert!((x1 * 2.0 - x1_clear).abs() / x1_clear < 1e-9);
    }

    #[test]
    fn isolated_best_picks_the_right_width() {
        let m = two_ap_model(&[32.0], &[1.0], false);
        assert_eq!(
            m.isolated_best_bps(ApId(0)),
            m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40)
        );
        assert_eq!(
            m.isolated_best_bps(ApId(1)),
            m.isolated_throughput_bps(ApId(1), ChannelWidth::Ht20)
        );
    }

    #[test]
    fn poor_client_drags_down_a_bonded_cell() {
        // The anomaly + CB interaction at the heart of the paper: a strong
        // cell loses more from one poor client at 40 MHz than at 20 MHz.
        let strong = two_ap_model(&[30.0, 30.0], &[], false);
        let mixed = two_ap_model(&[30.0, 30.0, 2.0], &[], false);
        let loss_at = |width| {
            mixed.isolated_throughput_bps(ApId(0), width)
                / strong.isolated_throughput_bps(ApId(0), width)
        };
        assert!(
            loss_at(ChannelWidth::Ht40) < loss_at(ChannelWidth::Ht20),
            "40 MHz should suffer relatively more: {} vs {}",
            loss_at(ChannelWidth::Ht40),
            loss_at(ChannelWidth::Ht20)
        );
    }

    #[test]
    fn empty_cell_contributes_zero() {
        let m = two_ap_model(&[], &[20.0], false);
        let a = vec![single(0), single(1)];
        assert_eq!(m.ap_throughput_bps(ApId(0), &a), 0.0);
        assert!(m.total_bps(&a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "one cell per AP")]
    fn mismatched_cells_panic() {
        NetworkModel::new(InterferenceGraph::new(2), vec![vec![]]);
    }

    #[test]
    fn empty_colour_sets_degrade_to_stay_put() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        // Both the hoisted scan and the trait default must return the
        // current colour with zero gain, not abort.
        assert_eq!(m.best_switch(ApId(0), &[], &a), (single(0), 0.0));
        struct Slow<'m>(&'m NetworkModel);
        impl ThroughputModel for Slow<'_> {
            fn n_aps(&self) -> usize {
                self.0.n_aps()
            }
            fn ap_throughput_bps(&self, ap: ApId, a: &[ChannelAssignment]) -> f64 {
                self.0.ap_throughput_bps(ap, a)
            }
        }
        assert_eq!(Slow(&m).best_switch(ApId(1), &[], &a), (single(1), 0.0));
    }

    #[test]
    fn delta_matches_full_recompute() {
        // The O(Δ) specialization must agree with the trait's
        // full-recompute default on every (AP, colour) candidate,
        // including bonded/overlap transitions, to float-sum accuracy.
        let graph = InterferenceGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cells = [
            &[28.0, 22.0][..],
            &[15.0][..],
            &[8.0, 6.0, 31.0][..],
            &[2.0][..],
        ];
        let cells = cells
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        let m = NetworkModel::new(graph, cells);
        let assignments = vec![single(0), bonded(0), single(1), single(3)];
        let colours = [
            single(0),
            single(1),
            single(2),
            single(3),
            bonded(0),
            bonded(2),
        ];
        for ap in 0..4 {
            for &c in &colours {
                let fast = m.delta_bps(ApId(ap), c, &assignments);
                let mut alt = assignments.clone();
                alt[ap] = c;
                let slow = m.total_bps(&alt) - m.total_bps(&assignments);
                assert!(
                    (fast - slow).abs() <= 1e-6 * slow.abs().max(1.0),
                    "ap {ap} -> {c:?}: fast {fast} slow {slow}"
                );
            }
        }
    }

    #[test]
    fn delta_of_current_colour_is_exactly_zero() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        assert_eq!(m.delta_bps(ApId(0), single(0), &a), 0.0);
    }

    #[test]
    fn model_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<NetworkModel>();
    }

    #[test]
    fn stats_count_rebuilds_deltas_and_scans() {
        let first = two_ap_model(&[25.0], &[20.0], true);
        assert_eq!(
            first.stats().snapshot().rebuilds,
            1,
            "construction builds once"
        );
        // A second model counts its own build, not the first one's.
        let m = two_ap_model(&[25.0], &[20.0], true);
        assert_eq!(m.stats().snapshot().rebuilds, 1);

        let a = vec![single(0), single(1)];
        let before = m.stats().snapshot();
        m.delta_bps(ApId(0), single(1), &a);
        let colours = [single(0), single(1), single(2)];
        m.best_switch(ApId(0), &colours, &a);
        let after = m.stats().snapshot();
        assert_eq!(after.delta_evals - before.delta_evals, 1 + 3);
        assert_eq!(after.best_switch_scans - before.best_switch_scans, 1);

        // take() drains; a cloned model carries the values forward.
        let cloned = m.clone();
        assert_eq!(cloned.stats().snapshot(), after);
        assert_eq!(m.stats().take(), after);
        assert_eq!(m.stats().snapshot(), ModelStatsSnapshot::default());
    }

    #[test]
    fn restricted_submodel_copies_rows_and_edges_bit_exactly() {
        let graph = InterferenceGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let cells = [
            &[28.0, 22.0][..],
            &[15.0][..],
            &[8.0, 31.0][..],
            &[2.0][..],
            &[19.0][..],
        ];
        let cells: Vec<Vec<ClientSnr>> = cells
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        let m = NetworkModel::new(graph, cells);
        let sub = m.restrict(&[3, 4]);
        assert_eq!(sub.n_aps(), 2);
        assert!(sub.graph.interferes(ApId(0), ApId(1)));
        for (new, old) in [(0usize, 3usize), (1, 4)] {
            for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                assert_eq!(
                    sub.cell_base_bps(ApId(new), w).to_bits(),
                    m.cell_base_bps(ApId(old), w).to_bits(),
                    "row ({old}, {w:?}) must be copied, not re-derived"
                );
            }
        }
        // Restriction copies rows — no estimator pipeline rebuild.
        assert_eq!(sub.stats().snapshot().rebuilds, 0);
        // Edges to outside the subset are dropped.
        let sub2 = m.restrict(&[0, 1, 3]);
        assert!(sub2.graph.interferes(ApId(0), ApId(1)));
        assert_eq!(sub2.graph.degree(ApId(2)), 0, "edge (3,4) left the subset");

        // Random graphs and random ascending subsets: every pair keeps
        // exactly its parent edge, every row its parent bits.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2010);
        for case in 0..40 {
            let n = rng.gen_range(1..14usize);
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                .filter(|_| rng.gen_bool(0.35))
                .collect();
            let cells: Vec<Vec<ClientSnr>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(0..3usize))
                        .map(|client| ClientSnr {
                            client,
                            snr20_db: rng.gen_range(-2.0..40.0),
                        })
                        .collect()
                })
                .collect();
            let m = NetworkModel::new(InterferenceGraph::from_edges(n, &edges), cells);
            let nodes: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
            let sub = m.restrict(&nodes);
            assert_eq!(sub.n_aps(), nodes.len(), "case {case}");
            for (i, &oi) in nodes.iter().enumerate() {
                for (j, &oj) in nodes.iter().enumerate() {
                    assert_eq!(
                        sub.graph.interferes(ApId(i), ApId(j)),
                        m.graph.interferes(ApId(oi), ApId(oj)),
                        "case {case}: pair ({oi}, {oj}) of {nodes:?}"
                    );
                }
                for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                    assert_eq!(
                        sub.cell_base_bps(ApId(i), w).to_bits(),
                        m.cell_base_bps(ApId(oi), w).to_bits(),
                        "case {case}: row ({oi}, {w:?})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn restrict_rejects_unsorted_nodes() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        m.restrict(&[1, 0]);
    }

    #[test]
    fn table_backed_model_tracks_the_exact_model() {
        use acorn_phy::GoodputTable;
        let graph = InterferenceGraph::complete(2);
        let mk = |snrs: &[f64]| {
            snrs.iter()
                .enumerate()
                .map(|(i, &s)| ClientSnr {
                    client: i,
                    snr20_db: s,
                })
                .collect::<Vec<_>>()
        };
        let cells = vec![mk(&[30.0, 8.5, 1.65]), mk(&[22.3, 14.0])];
        let exact = NetworkModel::new(graph.clone(), cells.clone());
        let table = std::sync::Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let fast = NetworkModel::with_table(graph, cells, table.clone(), 1500);
        let a = vec![single(0), single(1)];
        let (ye, yf) = (exact.total_bps(&a), fast.total_bps(&a));
        assert!(
            (ye - yf).abs() / ye < 1e-3,
            "table-backed total {yf} vs exact {ye}"
        );
        assert!(table.stats().hits > 0, "cell-base build must hit the table");
        assert_eq!(
            fast.table().map(std::sync::Arc::as_ptr),
            Some(std::sync::Arc::as_ptr(&table))
        );
        // Restriction shares the same table.
        let sub = fast.restrict(&[0]);
        assert!(sub.table().is_some());
    }

    /// Regression for the DESIGN.md §13.3 footgun: epoch flushes used to
    /// *drain* the shared table's counters, so the second of two
    /// sequential runs over one `Arc<GoodputTable>` saw zero rebuilds
    /// (and whatever hits the first run hadn't stolen). With cumulative
    /// counters and per-attach flush cursors, both runs must report
    /// identical hit/miss/rebuild counts.
    #[test]
    fn sequential_runs_sharing_a_table_report_identical_counters() {
        use acorn_obs::RecordingSink;
        use acorn_phy::GoodputTable;
        let graph = InterferenceGraph::complete(2);
        let cells = vec![
            vec![ClientSnr {
                client: 0,
                snr20_db: 27.0,
            }],
            vec![ClientSnr {
                client: 1,
                snr20_db: 14.5,
            }],
        ];
        let table = std::sync::Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let run = || {
            let m = NetworkModel::with_table(graph.clone(), cells.clone(), table.clone(), 1500);
            let a = vec![single(0), single(1)];
            m.total_bps(&a);
            let sink = RecordingSink::new();
            m.flush_stats_into(&sink);
            sink.with_telemetry(|t| {
                (
                    t.counter(names::TABLE_HITS),
                    t.counter(names::TABLE_MISSES),
                    t.counter(names::TABLE_REBUILDS),
                )
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "shared-table runs must report identically");
        assert_eq!(first.2, 1, "each attach reports the one build it adopted");
        assert!(first.0 > 0, "cell-base build goes through the table");
        // The table itself keeps cumulative counts: two identical runs,
        // twice the traffic, still exactly one build.
        let s = table.stats();
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.hits, 2 * first.0);
    }

    #[test]
    fn stats_flush_reports_model_metrics() {
        use acorn_obs::RecordingSink;
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        m.best_switch(ApId(0), &[single(0), single(1)], &a);
        let sink = RecordingSink::new();
        m.stats().flush_into(&sink);
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(acorn_obs::names::MODEL_REBUILDS), 1);
            assert_eq!(t.counter(acorn_obs::names::MODEL_DELTA_EVALS), 2);
            assert_eq!(t.counter(acorn_obs::names::MODEL_BEST_SWITCH_SCANS), 1);
        });
    }
}
