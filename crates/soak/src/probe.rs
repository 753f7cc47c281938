//! Periodic goodput probe with bounded-memory recording.
//!
//! Once per period the probe evaluates the localized live-network
//! goodput model ([`CityWorld::cell_bps_up`] summed over cells: the
//! cell's cached ATD at its operating width, plus an O(neighbours) access
//! share — no estimator lookup, no model build) and records it three
//! ways:
//!
//! * `soak.network_bps` **series** — the recent window, ring-buffered
//!   under the telemetry series cap (O(1) in horizon);
//! * `soak.network_bps` **sketch** — the full-horizon distribution at
//!   KLL accuracy (O(k log n) retained);
//! * `soak.client_bps` **sketch** — one observation per associated
//!   client of its equal-share slice of its cell's goodput, so the
//!   p50/p95/p99 a soak reports are client-experienced numbers, not
//!   cell averages.
//!
//! [`CityWorld::cell_bps_up`]: acorn_events::CityWorld::cell_bps_up

use acorn_events::{AcornEvent, CityWorld, Ctx, Process};
use acorn_obs::{QuantileSketch, DEFAULT_SKETCH_K};

/// Sketch/series name for network-wide live goodput.
pub const NETWORK_BPS: &str = "soak.network_bps";
/// Sketch name for per-client goodput shares.
pub const CLIENT_BPS: &str = "soak.client_bps";

/// The periodic goodput probe.
pub struct SoakProbe {
    /// Sampling period (s).
    pub period_s: f64,
    /// Horizon (s); samples past it never fire.
    pub horizon_s: f64,
}

impl Process<CityWorld, AcornEvent> for SoakProbe {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        for name in [NETWORK_BPS, CLIENT_BPS] {
            if let Ok(s) = QuantileSketch::new(DEFAULT_SKETCH_K) {
                ctx.telemetry.register_sketch(name, s);
            }
        }
        if self.period_s < self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::ProbeSample);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::ProbeSample);
        let t = ctx.now();
        let w = &*ctx.world;
        let mut total = 0.0;
        for ap in 0..w.wlan.aps.len() {
            let cell = w.cell_bps_up(ap);
            total += cell;
            let k = w.cell_clients(ap).len();
            if cell > 0.0 && k > 0 {
                let share = cell / k as f64;
                for _ in 0..k {
                    ctx.telemetry.sketch_observe(CLIENT_BPS, share);
                }
            }
        }
        ctx.telemetry.record(NETWORK_BPS, t, total);
        ctx.telemetry.sketch_observe(NETWORK_BPS, total);
        ctx.telemetry.inc("probe.samples");
        let next = t + self.period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::ProbeSample);
        }
    }
}
