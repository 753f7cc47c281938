//! Streaming session workload: heavy-tailed arrivals under a diurnal
//! load curve with seeded flash-crowd bursts, generated one event at a
//! time.
//!
//! The city scenario materializes its whole session trace up front —
//! fine for an hour, hopeless for a week (10⁶ sessions of 24 bytes
//! each, plus an event-queue entry per session boundary). The soak
//! workload instead *streams*: a dominating homogeneous Poisson process
//! at the curve's peak rate proposes candidate arrivals, and each
//! candidate is accepted with probability `rate(t) / rate_max`
//! (Lewis–Shedler thinning). Memory is O(clients); the event queue holds
//! at most one pending tick plus one departure per active client.
//!
//! Determinism: all draws come from one `StdRng` seeded via
//! [`mix_seed`] and consumed inside sequential
//! event handlers, so runs are bit-identical at any `ACORN_THREADS`.

use acorn_events::{mix_seed, AcornEvent, CityWorld, Ctx, Process};
use acorn_obs::Histogram;
use acorn_traces::AssociationDurations;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One flash-crowd window: while `[at_s, at_s + duration_s)` is active,
/// the arrival rate is multiplied by `rate_multiplier`. Overlapping
/// windows compose multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Window start (s).
    pub at_s: f64,
    /// Window length (s).
    pub duration_s: f64,
    /// Rate multiplier while active (≥ 0; > 1 for a burst).
    pub rate_multiplier: f64,
}

impl FlashCrowd {
    fn active_at(&self, t: f64) -> bool {
        t >= self.at_s && t < self.at_s + self.duration_s
    }
}

/// The workload's shape: base rate, diurnal modulation, flash crowds,
/// and the heavy-tailed association-duration model.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Mean arrival rate at a flat diurnal curve (clients/s).
    pub base_rate_per_s: f64,
    /// Diurnal modulation depth in `[0, 1)`:
    /// `rate(t) = base · (1 + amplitude · sin(2π t / day))` before flash
    /// multipliers.
    pub diurnal_amplitude: f64,
    /// Diurnal period (s). 86 400 for a calendar day; shorter for tests.
    pub day_period_s: f64,
    /// Seeded flash-crowd bursts.
    pub flash: Vec<FlashCrowd>,
    /// Association-duration model (CRAWDAD-fit lognormal + tail).
    pub durations: AssociationDurations,
    /// Workload seed, mixed with [`mix_seed`]
    /// into the generator's RNG stream — independent of the scenario
    /// seed so fault and workload streams never alias.
    pub mix_seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            base_rate_per_s: 1.0 / 30.0,
            diurnal_amplitude: 0.6,
            day_period_s: 86_400.0,
            flash: Vec::new(),
            durations: AssociationDurations::default(),
            mix_seed: 0x50AC,
        }
    }
}

impl WorkloadSpec {
    /// The instantaneous arrival rate (clients/s) at virtual time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let diurnal = 1.0
            + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * t / self.day_period_s).sin();
        let flash: f64 = self
            .flash
            .iter()
            .filter(|f| f.active_at(t))
            .map(|f| f.rate_multiplier)
            .product();
        self.base_rate_per_s * diurnal * flash
    }

    /// A rate that dominates `rate_at` for every `t` — the thinning
    /// envelope. The flash component's maximum product over time is
    /// attained at some window's start, so the envelope is exact for
    /// the flash term (multiplying *all* windows would inflate the
    /// proposal stream by the product of every non-overlapping burst).
    pub fn rate_max(&self) -> f64 {
        let flash_cap = self
            .flash
            .iter()
            .map(|f| {
                self.flash
                    .iter()
                    .filter(|g| g.active_at(f.at_s))
                    .map(|g| g.rate_multiplier.max(1.0))
                    .product()
            })
            .fold(1.0f64, f64::max);
        self.base_rate_per_s * (1.0 + self.diurnal_amplitude) * flash_cap
    }
}

/// The streaming workload generator: proposes arrivals by thinning,
/// associates accepted clients inline through the same world operations
/// as the trace-driven session process ([`CityWorld::arrive`] and
/// [`CityWorld::depart`]), and schedules each client's heavy-tailed
/// departure.
///
/// Telemetry matches the session process (`sessions.arrivals`,
/// `sessions.departures`, `clients.active`, `association.delay_s`) plus
/// the workload's own stream counters
/// (`workload.ticks`, `workload.thinned`, `workload.saturated`,
/// `workload.no_candidate`).
pub struct WorkloadGen {
    /// The workload shape.
    pub spec: WorkloadSpec,
    /// Horizon (s); ticks at or past it never fire.
    pub horizon_s: f64,
    /// Run the localized §5.2 width adaptation after cell changes.
    pub adapt_widths: bool,
    rate_max: f64,
    rng: StdRng,
    /// Clients currently idle (available to arrive). Drawn uniformly so
    /// arrivals stay spatially mixed; `swap_remove` keeps it O(1).
    idle: Vec<u32>,
}

impl WorkloadGen {
    /// A generator for `spec` over `horizon_s` seconds.
    pub fn new(spec: WorkloadSpec, horizon_s: f64, adapt_widths: bool) -> WorkloadGen {
        assert!(spec.base_rate_per_s > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&spec.diurnal_amplitude),
            "diurnal amplitude must sit in [0, 1)"
        );
        assert!(spec.day_period_s > 0.0, "day period must be positive");
        let rate_max = spec.rate_max();
        let rng = StdRng::seed_from_u64(mix_seed(spec.mix_seed, 0));
        WorkloadGen {
            spec,
            horizon_s,
            adapt_widths,
            rate_max,
            rng,
            idle: Vec::new(),
        }
    }

    /// Exponential inter-proposal gap at the dominating rate.
    fn next_gap_s(&mut self) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / self.rate_max
    }

    fn chain_tick(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        let next = ctx.now() + self.next_gap_s();
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::WorkloadTick);
        }
    }
}

impl Process<CityWorld, AcornEvent> for WorkloadGen {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        self.idle = (0..ctx.world.wlan.clients.len() as u32).collect();
        if let Ok(h) = Histogram::linear(0.0, 0.01, 50) {
            ctx.telemetry.register_histogram("association.delay_s", h);
        }
        self.chain_tick(ctx);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        match *event {
            AcornEvent::WorkloadTick => {
                let t = ctx.now();
                ctx.telemetry.inc("workload.ticks");
                // Thinning: accept this proposal with rate(t)/rate_max.
                let accept_p = self.spec.rate_at(t) / self.rate_max;
                let roll: f64 = self.rng.gen_range(0.0..1.0);
                if roll >= accept_p {
                    ctx.telemetry.inc("workload.thinned");
                } else if self.idle.is_empty() {
                    // Every client is already associated: the deployment
                    // is saturated and the arrival is lost (counted, so
                    // under-provisioned runs are visible).
                    ctx.telemetry.inc("workload.saturated");
                } else {
                    let slot = (self.rng.gen_range(0.0..1.0) * self.idle.len() as f64) as usize;
                    let c = self.idle.swap_remove(slot.min(self.idle.len() - 1)) as usize;
                    match ctx.world.arrive(c, self.adapt_widths, ctx.telemetry) {
                        Some(_) => {
                            let dur = self.spec.durations.sample(&mut self.rng);
                            ctx.schedule_at((t + dur).min(self.horizon_s), AcornEvent::Depart(c));
                        }
                        None => {
                            // No live AP in range (coverage hole or mass
                            // outage): the client stays idle.
                            ctx.telemetry.inc("workload.no_candidate");
                            self.idle.push(c as u32);
                        }
                    }
                }
                ctx.telemetry
                    .set_gauge("clients.active", ctx.world.active_clients() as f64);
                self.chain_tick(ctx);
            }
            AcornEvent::Depart(c) => {
                ctx.world.depart(c, self.adapt_widths, ctx.telemetry);
                self.idle.push(c as u32);
                ctx.telemetry
                    .set_gauge("clients.active", ctx.world.active_clients() as f64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_curve_peaks_at_quarter_day_and_flash_multiplies() {
        let spec = WorkloadSpec {
            base_rate_per_s: 1.0,
            diurnal_amplitude: 0.5,
            day_period_s: 400.0,
            flash: vec![FlashCrowd {
                at_s: 100.0,
                duration_s: 10.0,
                rate_multiplier: 4.0,
            }],
            ..WorkloadSpec::default()
        };
        assert!((spec.rate_at(0.0) - 1.0).abs() < 1e-12);
        assert!(
            (spec.rate_at(100.0) - 1.5 * 4.0).abs() < 1e-12,
            "peak x flash"
        );
        assert!((spec.rate_at(300.0) - 0.5).abs() < 1e-12, "trough");
        let rm = spec.rate_max();
        for t in 0..400 {
            assert!(
                spec.rate_at(t as f64) <= rm + 1e-12,
                "envelope fails at {t}"
            );
        }
    }

    #[test]
    fn rate_max_bounds_overlapping_flash_windows() {
        let spec = WorkloadSpec {
            base_rate_per_s: 2.0,
            diurnal_amplitude: 0.0,
            flash: vec![
                FlashCrowd {
                    at_s: 0.0,
                    duration_s: 100.0,
                    rate_multiplier: 3.0,
                },
                FlashCrowd {
                    at_s: 50.0,
                    duration_s: 100.0,
                    rate_multiplier: 2.0,
                },
            ],
            ..WorkloadSpec::default()
        };
        // In the overlap the multipliers compose: 2 · 3 · 2 = 12.
        assert!((spec.rate_at(75.0) - 12.0).abs() < 1e-12);
        assert!(spec.rate_max() >= 12.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_base_rate_is_rejected() {
        WorkloadGen::new(
            WorkloadSpec {
                base_rate_per_s: 0.0,
                ..WorkloadSpec::default()
            },
            10.0,
            false,
        );
    }
}
