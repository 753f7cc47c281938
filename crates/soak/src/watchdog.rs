//! Online invariant watchdog: cross-checks the incremental city world
//! against from-scratch recomputation *while the soak runs*, and fails
//! fast with a replayable coordinate instead of letting a silent
//! corruption skew days of statistics.
//!
//! Checked invariants (violation codes in parentheses):
//!
//! 1. **Graph twin (1).** The incrementally-maintained conflict graph
//!    must equal `wlan.interference_graph(&assoc)` recomputed from
//!    scratch — run every [`WatchdogSpec::graph_check_every`]-th check
//!    because it is O(V+E).
//! 2. **Cell/association twin (2).** Every client in some AP's cell
//!    must be associated to exactly that AP, every associated client
//!    must appear in its AP's cell, and the cached active count must
//!    match — recomputed from `state.assoc` each check.
//! 3. **Width monotonicity (3).** An AP's operating width can only
//!    *narrow* its assigned width (§5.2 adaptation and safe mode both
//!    shed 40 MHz bonds; nothing may ever widen past the assignment).
//! 4. **Safe-mode consistency (4).** Every re-allocation record must
//!    satisfy `degraded == (down_aps > 0)` — safe mode exactly when the
//!    epoch saw a hole (checked only when a fault layer is attached).
//! 5. **Liveness gauge (5).** The fault layer's `faults.aps_down` gauge
//!    must equal the world's actual down count.
//! 6. **Advert twin (6).** Each active client's cached HT20 SNR must
//!    equal a fresh `wlan.snr_db` of its link, and the world's cached
//!    per-client delays and per-cell ATDs a fresh recomputation from
//!    those SNRs, bit for bit ([`CityWorld::advert_cache_matches`]) — on
//!    the graph twin's cadence. It records nothing unless it trips.
//!
//! On a violation the watchdog increments `watchdog.violations` (plus a
//! per-code counter), freezes the first trip's coordinates into the
//! `watchdog.trip.*` gauges — `(seed, check index, virtual time, event
//! seq)` pin the exact deterministic replay — and, with
//! [`WatchdogSpec::fail_fast`], stops the simulation.

use acorn_events::{AcornEvent, CityWorld, Ctx, Process};
use acorn_topology::ApId;

/// Watchdog cadence and strictness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogSpec {
    /// Check period (s).
    pub period_s: f64,
    /// Run the O(V+E) graph-twin and advert-twin recomputations every
    /// Nth check (the cheap O(clients) checks run every time). 0
    /// disables them.
    pub graph_check_every: u64,
    /// Stop the simulation at the first violation.
    pub fail_fast: bool,
}

impl Default for WatchdogSpec {
    fn default() -> Self {
        WatchdogSpec {
            period_s: 60.0,
            graph_check_every: 8,
            fail_fast: true,
        }
    }
}

/// The online watchdog process.
pub struct InvariantWatchdog {
    /// Cadence and strictness.
    pub spec: WatchdogSpec,
    /// Horizon (s); checks past it never fire.
    pub horizon_s: f64,
    /// The scenario seed, frozen into the trip gauges for replay.
    pub seed: u64,
    /// Whether a fault layer is attached (enables invariants 4 and 5).
    pub faults_on: bool,
    checks: u64,
    seen_realloc: usize,
    tripped: bool,
}

impl InvariantWatchdog {
    /// A watchdog for one soak run.
    pub fn new(spec: WatchdogSpec, horizon_s: f64, seed: u64, faults_on: bool) -> Self {
        InvariantWatchdog {
            spec,
            horizon_s,
            seed,
            faults_on,
            checks: 0,
            seen_realloc: 0,
            tripped: false,
        }
    }

    /// Records a violation; returns whether the run must stop here
    /// ([`WatchdogSpec::fail_fast`]).
    fn violate(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>, code: u64, name: &str) -> bool {
        ctx.telemetry.inc("watchdog.violations");
        ctx.telemetry.inc(&format!("watchdog.viol.{name}"));
        if !self.tripped {
            self.tripped = true;
            // The replay coordinate: re-run the same scenario (same seed,
            // same processes) and break at this check index / time.
            ctx.telemetry.set_gauge("watchdog.trip.code", code as f64);
            ctx.telemetry
                .set_gauge("watchdog.trip.seed", self.seed as f64);
            ctx.telemetry
                .set_gauge("watchdog.trip.check", self.checks as f64);
            ctx.telemetry.set_gauge("watchdog.trip.t_s", ctx.now());
            ctx.telemetry
                .set_gauge("watchdog.trip.event_seq", ctx.event_seq() as f64);
        }
        if self.spec.fail_fast {
            ctx.stop();
        }
        self.spec.fail_fast
    }
}

impl Process<CityWorld, AcornEvent> for InvariantWatchdog {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        if self.spec.period_s < self.horizon_s {
            ctx.schedule_at(self.spec.period_s, AcornEvent::WatchdogCheck);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::WatchdogCheck);
        self.checks += 1;
        ctx.telemetry.inc("watchdog.checks");

        // (2) Cell/association twin, recomputed from state.assoc.
        let w = &*ctx.world;
        let n_aps = w.wlan.aps.len();
        let mut cells_ok = true;
        let mut in_cells = 0usize;
        for ap in 0..n_aps {
            for &c in w.cell_clients(ap) {
                in_cells += 1;
                if w.state.assoc[c as usize] != Some(ApId(ap)) {
                    cells_ok = false;
                }
            }
        }
        let assoc_count = w.state.assoc.iter().filter(|a| a.is_some()).count();
        if in_cells != assoc_count || assoc_count != w.active_clients() {
            cells_ok = false;
        }
        if !cells_ok && self.violate(ctx, 2, "cells") {
            return;
        }

        // (3) Operating width never exceeds the assigned width.
        let w = &*ctx.world;
        let widened = (0..n_aps).any(|ap| {
            use acorn_phy::ChannelWidth;
            w.state.operating_width[ap] == ChannelWidth::Ht40
                && w.state.assignments[ap].width() != ChannelWidth::Ht40
        });
        if widened && self.violate(ctx, 3, "width") {
            return;
        }

        // (4) Safe mode exactly when the epoch saw a hole.
        if self.faults_on {
            let w = &*ctx.world;
            let bad = w.realloc_log[self.seen_realloc..]
                .iter()
                .any(|r| r.degraded != (r.down_aps > 0));
            self.seen_realloc = w.realloc_log.len();
            if bad && self.violate(ctx, 4, "realloc") {
                return;
            }

            // (5) The fault layer's liveness gauge tracks the world.
            let down = ctx.world.down_count() as f64;
            let gauge = ctx.telemetry.gauge("faults.aps_down");
            if gauge.is_some_and(|g| g != down) && self.violate(ctx, 5, "liveness") {
                return;
            }
        }

        // (1) Graph twin and (6) advert twin: incremental vs from-scratch,
        // every Nth check.
        if self.spec.graph_check_every > 0 && self.checks % self.spec.graph_check_every == 0 {
            let w = &*ctx.world;
            let twin_ok = w.graph_snapshot() == w.wlan.interference_graph(&w.state.assoc);
            if !twin_ok && self.violate(ctx, 1, "graph") {
                return;
            }
            if !ctx.world.advert_cache_matches() && self.violate(ctx, 6, "advert") {
                return;
            }
            ctx.telemetry.inc("watchdog.graph_checks");
        }

        let next = ctx.now() + self.spec.period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::WatchdogCheck);
        }
    }
}

/// Deliberate state corruption for watchdog negative tests: at `at_s`
/// it desynchronizes `state.assoc` from the world's cell structures
/// through the public API (flips one client's association entry without
/// touching the cells), which invariant 2 must catch on the next check.
pub struct SabotageProcess {
    /// Corruption time (s).
    pub at_s: f64,
}

impl Process<CityWorld, AcornEvent> for SabotageProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        // Rides the workload alphabet; the envelope targets this process,
        // so no other process sees the event.
        ctx.schedule_at(self.at_s, AcornEvent::WorkloadTick);
    }

    fn handle(&mut self, _event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        let w = &mut *ctx.world;
        match w.state.assoc.iter().position(|a| a.is_some()) {
            // Orphan an associated client: its cell entry survives but
            // the association record is gone.
            Some(c) => w.state.assoc[c] = None,
            // Nobody associated yet: forge an association with no cell
            // entry behind it.
            None => w.state.assoc[0] = Some(ApId(0)),
        }
        ctx.telemetry.inc("sabotage.injected");
    }
}
