//! Deterministic fault injection for ACORN scenarios.
//!
//! The robustness layer: a periodic *control round* over the world that
//! exercises the real control-plane machinery — beacons (and, in the
//! exact world, IAPP announcements) go through the actual `wire` codec,
//! damaged copies through its parser — while injecting seeded faults:
//!
//! * **AP crash/restart** — exponential inter-failure times (MTTF) with a
//!   fixed repair time (MTTR). A down AP stops beaconing and announcing;
//!   its clients detect the silence, deassociate, and re-scan.
//! * **Control-message faults** — per-copy loss, delay (reordering falls
//!   out naturally), and bit corruption. Corrupted frames reach the
//!   parser and must fail *typed* (`BadFcs`, never a panic).
//! * **Measurement faults** — NaN readings, ±25 dB outlier spikes, and
//!   frozen (stuck-sensor) feeds of each associated client's link SNR.
//!   The link is read from the world's cached HT20 SNR, which equals a
//!   fresh path-loss evaluation bit for bit
//!   ([`World::advert_cache_matches`]); nothing here re-derives it. In
//!   the exact world the trackers' gates decide what reaches the
//!   advertised delays; the incremental world's gates only count.
//!
//! Both worlds share one fault core: the stream salts, the crash
//! lifecycle, the measurement draw, the per-client beacon gauntlet with
//! its delayed-delivery queue, beacon-silence detection with the re-scan
//! through the locality's Algorithm 1, and the per-round
//! `resilience.network_bps` sample. Each AP's beacon (and, in the exact
//! world, each IAPP announcement) is serialized once per round and never
//! parsed by its sender. Each copy rolls [`FaultPlan::roll_copy`] and
//! carries its receiver's decode: what was sent if intact (debug builds
//! check that round trip at every send), the parser's verdict on its
//! damaged bytes if corrupted. A delayed copy waits in the queue as that
//! decode, and nothing is parsed on delivery.
//! [`FaultProcess`] adds what only the exact world models — IAPP, CSA,
//! and per-client [`ClientTracker`]s;
//! [`CityFaultProcess`](crate::CityFaultProcess) adds only the counting
//! gates on its cached SNRs.
//!
//! Every random draw derives from [`mix_seed`] keyed on the firing
//! event's sequence number plus a stream salt, so a scenario is
//! bit-identical at any `ACORN_THREADS` — the same contract as the rest
//! of the runtime.

use crate::acorn::AcornWorld;
use crate::sim::{mix_seed, Ctx, Process};
use crate::telemetry::{Histogram, Telemetry};
use crate::world::{AcornEvent, Locality, World};
use acorn_core::csa::CsaAction;
use acorn_core::iapp::{Announcement, IappAgent, DECODE_FLOOR_DBM};
use acorn_core::{
    parse_announcement, parse_beacon, serialize_announcement, serialize_beacon, switch_plans,
    ApCsa, Beacon, ClientCsa, ClientTracker,
};
use acorn_obs::{names, RecordingSink};
use acorn_topology::{ApId, ChannelAssignment};
use serde::Serialize;
use std::collections::HashMap;

/// Stream salts: each fault decision draws from its own independent
/// splitmix64 stream keyed `(plan.seed, event_seq, salt, counter)`. Both
/// worlds draw from the same streams, so plans transplant between
/// scenario classes without re-tuning.
const SALT_CRASH: u64 = 0x01;
pub(crate) const SALT_MEAS: u64 = 0x02;
const SALT_BEACON: u64 = 0x03;
const SALT_IAPP: u64 = 0x04;

/// Magnitude of an injected ±outlier SNR spike (dB).
pub(crate) const OUTLIER_DB: f64 = 25.0;
/// CSA countdown (beacon rounds) used when deploying switches.
const CSA_COUNTDOWN: u8 = 4;
/// Rounds of beacon silence before a client declares its AP dead.
const MISS_LIMIT: u64 = 3;

/// What faults to inject, and how hard. `Default` is fully benign (no
/// crashes, no message faults, no measurement faults) — useful as the
/// golden twin of a faulty plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault stream.
    pub seed: u64,
    /// Control-round period (s): beacons, IAPP announcements, measurement
    /// reports, CSA ticks, and failure detection all advance once per
    /// round.
    pub control_period_s: f64,
    /// Mean time to failure for AP crashes (s); `None` disables crashes.
    pub ap_mttf_s: Option<f64>,
    /// Repair time after a crash (s).
    pub ap_mttr_s: f64,
    /// Hard cap on the number of crashes injected over the run.
    pub max_crashes: usize,
    /// Per-copy control-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Per-copy bit-corruption probability in `[0, 1)` (1–3 seeded bit
    /// flips; the FCS must catch them as typed parse errors).
    pub corruption: f64,
    /// Per-copy delay probability in `[0, 1)`.
    pub delay_prob: f64,
    /// Maximum injected delay (s); the actual delay is uniform in
    /// `(0, delay_max_s]`, so delayed copies can reorder across rounds.
    pub delay_max_s: f64,
    /// Per-sample probability of a NaN SNR reading.
    pub meas_nan: f64,
    /// Per-sample probability of a ±25 dB outlier spike.
    pub meas_outlier: f64,
    /// Per-sample probability the sensor is frozen (no fresh reading this
    /// round — drives the staleness gate).
    pub meas_freeze: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            control_period_s: 10.0,
            ap_mttf_s: None,
            ap_mttr_s: 60.0,
            max_crashes: 1,
            loss: 0.0,
            corruption: 0.0,
            delay_prob: 0.0,
            delay_max_s: 0.0,
            meas_nan: 0.0,
            meas_outlier: 0.0,
            meas_freeze: 0.0,
        }
    }
}

impl FaultPlan {
    /// The fault-free twin of this plan: same seed and cadence, but
    /// nothing ever goes wrong. Running it yields the golden baseline a
    /// [`ResilienceReport`] compares against.
    pub fn benign_twin(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            control_period_s: self.control_period_s,
            ..FaultPlan::default()
        }
    }

    /// Rolls one copy of `frame` through the per-copy message-fault
    /// gauntlet — loss, then corruption (1–3 bit flips, the FCS
    /// deliberately *not* repaired), then delay — and returns its
    /// receiver's decode with its delay: `None` if the copy is lost,
    /// `Some((decode, Some(dt)))` if delayed by `dt`, `Some((decode,
    /// None))` otherwise. An intact copy decodes, by construction, to
    /// what was sent: `sent()`, with nothing copied or parsed. Only a
    /// damaged copy is copied and handed to `parse`. Counters go under
    /// `counters`' names, so the AP control round and the distributed
    /// control plane share one gauntlet with distinct namespaces.
    pub fn roll_copy<T>(
        &self,
        tel: &mut Telemetry,
        rng: &mut FaultRng,
        counters: &GauntletCounters,
        frame: &[u8],
        sent: impl FnOnce() -> T,
        parse: impl FnOnce(&[u8]) -> T,
    ) -> Option<(T, Option<f64>)> {
        tel.inc(counters.sent);
        if self.loss > 0.0 && rng.u01() < self.loss {
            tel.inc(counters.lost);
            return None;
        }
        let decode = if self.corruption > 0.0 && rng.u01() < self.corruption {
            tel.inc(counters.corrupted);
            let mut damaged = frame.to_vec();
            corrupt_frame(&mut damaged, rng);
            parse(&damaged)
        } else {
            sent()
        };
        let delay = if self.delay_prob > 0.0 && rng.u01() < self.delay_prob {
            tel.inc(counters.delayed);
            Some(rng.u01_open() * self.delay_max_s)
        } else {
            None
        };
        Some((decode, delay))
    }
}

/// What a faulty run did to the network, aggregated from telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// AP crashes injected.
    pub crashes: u64,
    /// AP restarts completed.
    pub restarts: u64,
    /// Control frames (beacon + IAPP copies) sent.
    pub frames_sent: u64,
    /// Copies dropped by the loss process.
    pub frames_lost: u64,
    /// Copies bit-corrupted before delivery.
    pub frames_corrupted: u64,
    /// Copies delivered late.
    pub frames_delayed: u64,
    /// Delivered copies the parser rejected (all typed errors).
    pub parse_errors: u64,
    /// Non-finite measurement reports rejected by the trackers.
    pub measurement_faults: u64,
    /// Outlier samples the trackers' median gate rejected.
    pub outliers_rejected: u64,
    /// Clients orphaned mid-CSA-countdown by a dead AP.
    pub csa_orphans: u64,
    /// Re-scans (deassociate + re-associate) triggered by detection.
    pub rescans: u64,
    /// IAPP hold-down solicitations issued.
    pub solicits: u64,
    /// Re-allocation epochs the controller ran in safe mode.
    pub safe_mode_epochs: u64,
    /// Mean time from an AP's last heard beacon to its clients declaring
    /// it dead (s); 0 when nothing was detected.
    pub mean_detection_delay_s: f64,
    /// Mean AP downtime per crash (s); 0 when nothing crashed.
    pub mean_downtime_s: f64,
    /// Mean of the per-round network throughput series (bits/s).
    pub faulty_mean_bps: f64,
    /// Same mean for the fault-free golden twin (bits/s); 0 until
    /// [`CompositeScenario::run_resilience`](crate::acorn::CompositeScenario::run_resilience)
    /// fills it in.
    pub golden_mean_bps: f64,
    /// `faulty_mean_bps / golden_mean_bps` (0 until the golden twin ran).
    pub throughput_retained: f64,
}

impl ResilienceReport {
    /// Aggregates the fault-layer telemetry of one run. The golden
    /// comparison fields stay zero until a golden twin fills them.
    pub fn from_telemetry(tel: &Telemetry) -> ResilienceReport {
        let hist_mean = |n: &str| tel.histogram(n).and_then(|h| h.mean()).unwrap_or(0.0);
        let series_mean = |n: &str| {
            tel.series(n)
                .filter(|s| !s.values.is_empty())
                .map(|s| s.values.iter().sum::<f64>() / s.values.len() as f64)
                .unwrap_or(0.0)
        };
        ResilienceReport {
            crashes: tel.counter("faults.crashes"),
            restarts: tel.counter("faults.restarts"),
            frames_sent: tel.counter("faults.frames_sent"),
            frames_lost: tel.counter("faults.frames_lost"),
            frames_corrupted: tel.counter("faults.frames_corrupted"),
            frames_delayed: tel.counter("faults.frames_delayed"),
            parse_errors: tel.counter("faults.parse_errors"),
            measurement_faults: tel.counter("faults.measurement_faults"),
            outliers_rejected: tel.counter("faults.outliers_rejected"),
            csa_orphans: tel.counter("faults.csa_orphans"),
            rescans: tel.counter("faults.rescans"),
            solicits: tel.counter("faults.solicits"),
            safe_mode_epochs: tel.counter(names::CONTROLLER_SAFE_MODE_EPOCHS),
            mean_detection_delay_s: hist_mean("faults.detection_delay_s"),
            mean_downtime_s: hist_mean("faults.downtime_s"),
            faulty_mean_bps: series_mean("resilience.network_bps"),
            golden_mean_bps: 0.0,
            throughput_retained: 0.0,
        }
    }
}

/// One independent fault stream: successive draws are
/// `mix_seed(mix_seed(seed, key), 0..)`.
///
/// Public so that other fault-routed layers (the distributed control
/// plane in `acorn-ctrlplane`) can key their own per-frame streams off
/// [`mix_seed`] with the same derivation discipline.
pub struct FaultRng {
    base: u64,
    n: u64,
}

impl FaultRng {
    /// A stream keyed `(seed, key, salt)` — typically the plan seed, the
    /// firing event's sequence number (or a frame id), and a stream salt.
    pub fn new(seed: u64, key: u64, salt: u64) -> FaultRng {
        FaultRng {
            base: mix_seed(mix_seed(seed, key), salt),
            n: 0,
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let x = mix_seed(self.base, self.n);
        self.n += 1;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn u01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `(0, 1]` — safe under `ln`.
    pub fn u01_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Flips 1–3 seeded bits somewhere in the frame — the corruption model
/// every fault-routed message path shares. The FCS is deliberately *not*
/// repaired: parsers must catch the damage as a typed error.
pub fn corrupt_frame(frame: &mut [u8], rng: &mut FaultRng) {
    let bits = frame.len() * 8;
    if bits == 0 {
        return;
    }
    let flips = 1 + (rng.next_u64() % 3) as usize;
    for _ in 0..flips {
        let pos = (rng.next_u64() % bits as u64) as usize;
        frame[pos / 8] ^= 1 << (pos % 8);
    }
}

/// The counter names a message gauntlet reports under. The AP control
/// round uses the historical `faults.*` set; the distributed control
/// plane reports the same physical pipeline under `ctrl.frames.*`.
#[derive(Debug, Clone, Copy)]
pub struct GauntletCounters {
    /// Copies pushed through the gauntlet.
    pub sent: &'static str,
    /// Copies dropped by the loss process.
    pub lost: &'static str,
    /// Copies bit-corrupted in flight.
    pub corrupted: &'static str,
    /// Copies delivered late.
    pub delayed: &'static str,
}

/// The `faults.*` counter set the AP control round reports under.
pub const FAULT_GAUNTLET: GauntletCounters = GauntletCounters {
    sent: "faults.frames_sent",
    lost: "faults.frames_lost",
    corrupted: "faults.frames_corrupted",
    delayed: "faults.frames_delayed",
};

/// Runs a scenario under its fault plan (the benign default when it has
/// none) and under the plan's fault-free twin, and returns the faulty
/// run with its [`ResilienceReport`] golden-comparison fields filled in
/// (`golden_mean_bps`, `throughput_retained`). The twin keeps the same
/// seed and control cadence, so the only difference between the runs is
/// the faults themselves. `report` picks a run's resilience report.
pub fn run_with_golden_twin<R>(
    plan: Option<FaultPlan>,
    run: impl Fn(FaultPlan) -> R,
    report: impl Fn(&mut R) -> &mut Option<ResilienceReport>,
) -> R {
    let plan = plan.unwrap_or_default();
    let mut faulty = run(plan);
    let mut golden = run(plan.benign_twin());
    if let (Some(r), Some(g)) = (report(&mut faulty).as_mut(), *report(&mut golden)) {
        r.golden_mean_bps = g.faulty_mean_bps;
        r.throughput_retained = if g.faulty_mean_bps > 0.0 {
            r.faulty_mean_bps / g.faulty_mean_bps
        } else {
            0.0
        };
    }
    faulty
}

/// A frame copy in flight (delayed by the fault layer), carrying the
/// decode its receiver will get ([`FaultPlan::roll_copy`]).
pub(crate) enum Delivery {
    /// A beacon copy addressed to one client of `ap`; `ok` if it decodes.
    Beacon { ok: bool, ap: usize, client: usize },
    /// An IAPP announcement copy addressed to AP `to` (`None`: the parser
    /// rejects it).
    Iapp {
        ann: Option<Announcement>,
        to: usize,
        rx_dbm: f64,
    },
}

/// A locally administered BSSID carrying the AP index.
fn bssid(ap: usize) -> [u8; 6] {
    let b = (ap as u64).to_be_bytes();
    [0x02, b[3], b[4], b[5], b[6], b[7]]
}

/// The fault machinery both worlds share: the plan and its round clock,
/// the crash lifecycle, the measurement draw, the per-client beacon
/// gauntlet with its delayed-delivery queue, beacon-silence detection
/// with the re-scan through the locality's Algorithm 1, and the
/// per-round throughput sample. Telemetry goes under the `faults.*`
/// namespace, so [`ResilienceReport`] aggregates both worlds alike.
#[derive(Default)]
pub(crate) struct FaultCore {
    pub(crate) plan: FaultPlan,
    horizon_s: f64,
    /// Control rounds fired so far.
    pub(crate) round: u64,
    /// The AP each client's liveness clock is bound to; rebinding (any
    /// association change) resets the clock.
    bound_ap: Vec<Option<ApId>>,
    last_heard_round: Vec<u64>,
    /// Delayed copies in flight, as their decodes, by message id.
    pub(crate) pending: HashMap<u32, Delivery>,
    next_msg_id: u32,
    crash_count: usize,
    down_since: Vec<Option<f64>>,
}

impl FaultCore {
    pub(crate) fn new(plan: FaultPlan, horizon_s: f64) -> FaultCore {
        FaultCore {
            plan,
            horizon_s,
            ..FaultCore::default()
        }
    }

    /// Sizes the per-AP and per-client state, registers the fault
    /// histograms, and schedules the first control round and crash.
    pub(crate) fn start<L: Locality>(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        let n_clients = ctx.world.wlan.clients.len();
        self.bound_ap = vec![None; n_clients];
        self.last_heard_round = vec![0; n_clients];
        self.down_since = vec![None; ctx.world.wlan.aps.len()];
        ctx.telemetry.register_histogram(
            "faults.detection_delay_s",
            Histogram::linear(0.0, 600.0, 60).expect("static histogram bounds"),
        );
        ctx.telemetry.register_histogram(
            "faults.downtime_s",
            Histogram::linear(0.0, 1200.0, 60).expect("static histogram bounds"),
        );
        if self.plan.control_period_s < self.horizon_s {
            ctx.schedule_at(self.plan.control_period_s, AcornEvent::ControlRound);
        }
        self.schedule_next_crash(ctx, 0.0);
    }

    /// This event's independent stream for one kind of fault decision.
    pub(crate) fn rng<L>(&self, ctx: &Ctx<'_, World<L>, AcornEvent>, salt: u64) -> FaultRng {
        FaultRng::new(self.plan.seed, ctx.event_seq(), salt)
    }

    fn schedule_next_crash<L>(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>, from_s: f64) {
        let Some(mttf) = self.plan.ap_mttf_s else {
            return;
        };
        if self.crash_count >= self.plan.max_crashes {
            return;
        }
        let n_aps = ctx.world.wlan.aps.len();
        if n_aps == 0 {
            return;
        }
        let mut rng = self.rng(ctx, SALT_CRASH);
        let t = from_s - mttf * rng.u01_open().ln();
        let ap = (rng.next_u64() % n_aps as u64) as usize;
        if t < self.horizon_s {
            ctx.schedule_at(t, AcornEvent::ApCrash(ap));
        }
    }

    /// AP `ap` crashes and its repair is scheduled. Returns `false` if it
    /// was already down.
    pub(crate) fn crash<L: Locality>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        ap: usize,
    ) -> bool {
        if !ctx.world.ap_up[ap] {
            return false;
        }
        self.crash_count += 1;
        ctx.world.ap_up[ap] = false;
        self.down_since[ap] = Some(ctx.now());
        ctx.telemetry.inc("faults.crashes");
        ctx.telemetry
            .set_gauge("faults.aps_down", ctx.world.down_count() as f64);
        let restart_at = ctx.now() + self.plan.ap_mttr_s;
        if restart_at < self.horizon_s {
            ctx.schedule_at(restart_at, AcornEvent::ApRestart(ap));
        }
        true
    }

    /// A crashed AP comes back and the next crash is drawn.
    pub(crate) fn restart<L: Locality>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        ap: usize,
    ) {
        if ctx.world.ap_up[ap] {
            return;
        }
        ctx.world.ap_up[ap] = true;
        if let Some(t0) = self.down_since[ap].take() {
            ctx.telemetry.observe("faults.downtime_s", ctx.now() - t0);
        }
        ctx.telemetry.inc("faults.restarts");
        ctx.telemetry
            .set_gauge("faults.aps_down", ctx.world.down_count() as f64);
        self.schedule_next_crash(ctx, ctx.now());
    }

    /// Opens a control round: advances the round clock and rebinds the
    /// liveness clock of every client whose association changed since the
    /// last round (the churn layer moves clients without telling the
    /// fault layer), calling `rebound(c)` for each.
    pub(crate) fn begin_round<L>(&mut self, w: &World<L>, mut rebound: impl FnMut(usize)) {
        self.round += 1;
        for (c, &assoc) in w.state.assoc.iter().enumerate() {
            if assoc != self.bound_ap[c] {
                self.bound_ap[c] = assoc;
                self.last_heard_round[c] = self.round;
                rebound(c);
            }
        }
    }

    /// One report of a link whose SNR is `snr` through the measurement
    /// faults: `None` when the sensor is frozen this round (no fresh
    /// sample, staleness grows), otherwise `snr`, a NaN reading, or a
    /// ±[`OUTLIER_DB`] spike. Every call draws the same number of values
    /// for the same outcome, whatever `snr` is.
    pub(crate) fn measure(&self, rng: &mut FaultRng, snr: f64) -> Option<f64> {
        let p = &self.plan;
        if p.meas_freeze > 0.0 && rng.u01() < p.meas_freeze {
            return None;
        }
        Some(if p.meas_nan > 0.0 && rng.u01() < p.meas_nan {
            f64::NAN
        } else if p.meas_outlier > 0.0 && rng.u01() < p.meas_outlier {
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            snr + sign * OUTLIER_DB
        } else {
            snr
        })
    }

    /// The beacon step: each live AP with clients serializes ONE frame —
    /// `advert` fills its cell's advertised delays into the step's one
    /// buffer and returns its access share — and every client of its
    /// cell gets an independent copy through the gauntlet
    /// ([`FaultPlan::roll_copy`]): lost, queued for late delivery, or
    /// delivered now. An intact copy is heard (`serialize_beacon`
    /// accepted the frame); a damaged one only if the parser decodes it.
    /// `heard(ap, client)` runs for each copy heard.
    pub(crate) fn beacons<L: Locality>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        mut advert: impl FnMut(&World<L>, usize, &mut Vec<f64>) -> f64,
        mut heard: impl FnMut(usize, usize),
    ) {
        let mut rng = self.rng(ctx, SALT_BEACON);
        let mut delays = Vec::new();
        for ap in 0..ctx.world.wlan.aps.len() {
            let n_clients = ctx.world.cell_clients(ap).len();
            if !ctx.world.ap_up[ap] || n_clients == 0 {
                continue;
            }
            delays.clear();
            let access_share = advert(ctx.world, ap, &mut delays);
            let beacon = Beacon {
                ap: ApId(ap),
                assignment: ctx.world.state.effective_assignment(ApId(ap)),
                n_clients,
                atd_s: delays.iter().sum(),
                client_delays_s: delays,
                access_share,
            };
            let frame = serialize_beacon(&beacon, bssid(ap), self.round);
            delays = beacon.client_delays_s;
            let Ok(frame) = frame else {
                continue; // more clients than a beacon can count (255)
            };
            debug_assert!(parse_beacon(&frame).is_ok(), "AP {ap}'s beacon");
            for i in 0..n_clients {
                let client = ctx.world.cell_clients(ap)[i] as usize;
                let rolled = self.plan.roll_copy(
                    ctx.telemetry,
                    &mut rng,
                    &FAULT_GAUNTLET,
                    &frame,
                    || true,
                    |f| parse_beacon(f).is_ok(),
                );
                let Some((ok, delay)) = rolled else {
                    continue;
                };
                if let Some(dt) = delay {
                    self.queue(ctx, dt, Delivery::Beacon { ok, ap, client });
                } else if self.hear(ctx.telemetry, ok, client) {
                    heard(ap, client);
                }
            }
        }
    }

    /// Credits `client` with a beacon copy that decoded (`ok`) or that the
    /// parser rejected.
    fn hear(&mut self, tel: &mut Telemetry, ok: bool, client: usize) -> bool {
        if ok {
            self.last_heard_round[client] = self.round;
        } else {
            tel.inc("faults.parse_errors");
        }
        ok
    }

    /// Delivers `delivery` `dt` seconds from now.
    pub(crate) fn queue<L>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        dt: f64,
        delivery: Delivery,
    ) {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        self.pending.insert(id, delivery);
        ctx.schedule_after(dt, AcornEvent::DeliverMsg(id));
    }

    /// A late beacon copy that decoded (`ok`) still proves liveness — if
    /// its client is still bound to the sender. Returns whether it was
    /// heard.
    pub(crate) fn late_beacon<L>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        ok: bool,
        ap: usize,
        client: usize,
    ) -> bool {
        ctx.world.state.assoc[client] == Some(ApId(ap)) && self.hear(ctx.telemetry, ok, client)
    }

    /// Whether client `c`'s AP has been silent for more than
    /// [`MISS_LIMIT`] rounds.
    pub(crate) fn silent(&self, c: usize) -> bool {
        self.round.saturating_sub(self.last_heard_round[c]) > MISS_LIMIT
    }

    /// Client `c` declares its AP dead: records the detection delay, then
    /// deassociates and re-scans through the locality's Algorithm 1
    /// (dead APs are never candidates), rebinding its liveness clock.
    /// Returns whether it found a live AP.
    pub(crate) fn rescan<L: Locality>(
        &mut self,
        ctx: &mut Ctx<'_, World<L>, AcornEvent>,
        c: usize,
    ) -> bool {
        let silent_rounds = self.round.saturating_sub(self.last_heard_round[c]);
        ctx.telemetry.observe(
            "faults.detection_delay_s",
            silent_rounds as f64 * self.plan.control_period_s,
        );
        let w = &mut *ctx.world;
        w.deassociate(c);
        let sink = RecordingSink::new();
        let found = w.associate(c, &sink).is_some();
        sink.drain_into(ctx.telemetry);
        self.bound_ap[c] = ctx.world.state.assoc[c];
        self.last_heard_round[c] = self.round;
        ctx.telemetry.inc("faults.rescans");
        found
    }

    /// Closes a control round: samples live-network throughput and
    /// schedules the next round.
    pub(crate) fn end_round<L: Locality>(&mut self, ctx: &mut Ctx<'_, World<L>, AcornEvent>) {
        let now = ctx.now();
        let bps = L::live_bps(ctx.world);
        ctx.telemetry.record("resilience.network_bps", now, bps);
        let next = now + self.plan.control_period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::ControlRound);
        }
    }
}

/// The exact world's fault process: the shared fault core plus the
/// control-plane state only the exact world models — IAPP agents, AP and
/// client CSA state machines, and per-client [`ClientTracker`]s whose
/// staleness/outlier gates decide what reaches the advertised delays.
/// Register it *last* on a scenario so the benign event schedule (and
/// therefore every pre-existing golden fingerprint) is untouched when it
/// is absent.
pub struct FaultProcess {
    core: FaultCore,
    agents: Vec<IappAgent>,
    ap_csa: Vec<ApCsa>,
    client_csa: Vec<ClientCsa>,
    trackers: Vec<Option<ClientTracker>>,
    last_assignments: Vec<ChannelAssignment>,
}

impl FaultProcess {
    /// Creates the process for `plan` over a given horizon.
    pub fn new(plan: FaultPlan, horizon_s: f64) -> FaultProcess {
        FaultProcess {
            core: FaultCore::new(plan, horizon_s),
            agents: Vec::new(),
            ap_csa: Vec::new(),
            client_csa: Vec::new(),
            trackers: Vec::new(),
            last_assignments: Vec::new(),
        }
    }

    fn fresh_agent(&self, ap: usize) -> IappAgent {
        let period = self.core.plan.control_period_s;
        let mut a = IappAgent::new(ApId(ap));
        // Cache lifetimes track the control cadence: ~2.5 rounds of
        // silence expire an entry into hold-down, retries start one round
        // later.
        a.expiry_s = 2.5 * period;
        a.hold_down_s = 2.5 * period;
        a.retry_backoff_s = period;
        a
    }

    /// Forgets a client's tracker and CSA state (it changed AP).
    fn forget(&mut self, c: usize) {
        self.trackers[c] = None;
        self.client_csa[c] = ClientCsa::default();
    }

    /// AP `from`'s IAPP announcement of its effective assignment and
    /// cell size, with its one frame. Each receiver then gets its own
    /// gauntlet copy ([`FaultProcess::send_iapp`]).
    fn announcement(&mut self, w: &AcornWorld, from: usize, now: f64) -> (Vec<u8>, Announcement) {
        let eff = w.state.effective_assignment(ApId(from));
        let ann = self.agents[from].announce(eff, w.cell_clients(from).len(), now);
        let frame = serialize_announcement(&ann, bssid(from));
        debug_assert_eq!(parse_announcement(&frame), Ok(ann));
        (frame, ann)
    }

    /// One gauntlet copy ([`FaultPlan::roll_copy`]) of the IAPP `frame`
    /// encoding `sent`, to AP `to`: lost, queued for late delivery, or
    /// delivered now.
    fn send_iapp(
        &mut self,
        ctx: &mut Ctx<'_, AcornWorld, AcornEvent>,
        rng: &mut FaultRng,
        frame: &[u8],
        sent: Announcement,
        to: usize,
        rx_dbm: f64,
    ) {
        let rolled = self.core.plan.roll_copy(
            ctx.telemetry,
            rng,
            &FAULT_GAUNTLET,
            frame,
            || Some(sent),
            |f| parse_announcement(f).ok(),
        );
        let Some((ann, delay)) = rolled else {
            return;
        };
        match delay {
            Some(dt) => self.core.queue(ctx, dt, Delivery::Iapp { ann, to, rx_dbm }),
            None => self.deliver_iapp(ctx.telemetry, ann, to, rx_dbm, ctx.now()),
        }
    }

    /// Delivers one IAPP announcement copy, decoded (`Some`) or rejected
    /// by the parser, to an AP's agent.
    fn deliver_iapp(
        &mut self,
        tel: &mut Telemetry,
        ann: Option<Announcement>,
        to: usize,
        rx_dbm: f64,
        now: f64,
    ) {
        match ann {
            Some(a) => self.agents[to].handle(&a, rx_dbm, now),
            None => tel.inc("faults.parse_errors"),
        }
    }

    /// One control round: measurements → beacons (+CSA) → IAPP →
    /// detection → throughput sample.
    fn control_round(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        let now = ctx.now();
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();

        // --- 0. Track association changes: (re)bind trackers/CSA state.
        let (trackers, client_csa) = (&mut self.trackers, &mut self.client_csa);
        self.core.begin_round(ctx.world, |c| {
            trackers[c] = None;
            client_csa[c] = ClientCsa::default();
        });
        let round = self.core.round;

        // --- 1. Deploy new channel switches over CSA.
        if let Ok(plans) = switch_plans(&self.last_assignments, &ctx.world.state.assignments) {
            for p in &plans {
                if ctx.world.ap_up[p.ap.0]
                    && self.ap_csa[p.ap.0].schedule(p.to, CSA_COUNTDOWN).is_ok()
                {
                    ctx.telemetry.inc(names::CSA_SCHEDULED);
                }
            }
        }
        self.last_assignments = ctx.world.state.assignments.clone();

        // Tick the AP-side countdowns (live APs only — a dead AP's
        // countdown dies with it).
        let mut round_announce: Vec<Option<(ChannelAssignment, u8)>> = vec![None; n_aps];
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            match self.ap_csa[ap].tick() {
                CsaAction::Announce { to, remaining } => {
                    ctx.telemetry.inc(names::CSA_ANNOUNCED);
                    round_announce[ap] = Some((to, remaining));
                }
                CsaAction::SwitchNow(_) => ctx.telemetry.inc(names::CSA_SWITCHED),
                CsaAction::Idle => {}
            }
        }

        // --- 2. Measurements: the AP-side driver reports each associated
        // client's link SNR (the world's cached HT20 SNR) into its
        // tracker, through the fault draw.
        let mut meas_rng = self.core.rng(ctx, SALT_MEAS);
        for c in 0..n_clients {
            let Some(ap) = ctx.world.state.assoc[c] else {
                continue;
            };
            if !ctx.world.ap_up[ap.0] {
                continue; // a dead AP measures nothing
            }
            let snr = ctx.world.client_snr20_cached(c);
            let Some(reported) = self.core.measure(&mut meas_rng, snr) else {
                continue;
            };
            let tracker = self.trackers[c].get_or_insert_with(|| ClientTracker::new(now));
            match tracker.observe_snr(reported, now) {
                Ok(true) => {}
                Ok(false) => ctx.telemetry.inc("faults.outliers_rejected"),
                Err(_) => ctx.telemetry.inc("faults.measurement_faults"),
            }
        }

        // --- 3. Beacons: delays from the trackers (∞ until a confirmed
        // sample), access share from the AP's IAPP view.
        let (trackers, agents, client_csa) = (&self.trackers, &self.agents, &mut self.client_csa);
        let advert = |w: &AcornWorld, ap: usize, delays: &mut Vec<f64>| {
            let width = w.state.operating_width[ap];
            delays.extend(
                w.cell_clients(ap)
                    .iter()
                    .map(|&c| match &trackers[c as usize] {
                        Some(t) => w.ctl.tracked_delay_s(t, now, width),
                        None => f64::INFINITY,
                    }),
            );
            agents[ap].access_share(w.state.effective_assignment(ApId(ap)))
        };
        self.core.beacons(ctx, advert, |ap, c| {
            client_csa[c].note_heard(round);
            if let Some((to, remaining)) = round_announce[ap] {
                client_csa[c].on_announcement(to, remaining, round);
            }
        });

        // --- 4. IAPP: live APs announce to every live AP in decode
        // range; the caches then age, and hold-down entries re-solicit.
        let mut iapp_rng = self.core.rng(ctx, SALT_IAPP);
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            let (frame, sent) = self.announcement(ctx.world, ap, now);
            for to in 0..n_aps {
                if to == ap || !ctx.world.ap_up[to] {
                    continue;
                }
                let rx = ctx.world.wlan.ap_to_ap_rx_dbm(ApId(ap), ApId(to));
                if rx >= DECODE_FLOOR_DBM {
                    self.send_iapp(ctx, &mut iapp_rng, &frame, sent, to, rx);
                }
            }
        }
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            self.agents[ap].prune(now);
            let held = self.agents[ap].held_down().len() as u64;
            if held > 0 {
                ctx.telemetry.add(names::IAPP_HOLD_DOWNS, held);
            }
            for target in self.agents[ap].due_solicits(now) {
                ctx.telemetry.inc("faults.solicits");
                if !ctx.world.ap_up[target.0] {
                    continue; // genuinely dead: the hold-down will lapse
                }
                // The probed neighbour answers with a fresh unicast
                // announcement, through the same gauntlet.
                let (frame, sent) = self.announcement(ctx.world, target.0, now);
                let rx = ctx.world.wlan.ap_to_ap_rx_dbm(target, ApId(ap));
                self.send_iapp(ctx, &mut iapp_rng, &frame, sent, ap, rx);
            }
        }

        // --- 5. Detection: CSA orphans and dead-AP silence.
        for c in 0..n_clients {
            if ctx.world.state.assoc[c].is_none() {
                continue;
            }
            let _ = self.client_csa[c].poll(round);
            let orphaned = self.client_csa[c].check_orphan(round, MISS_LIMIT);
            if orphaned {
                ctx.telemetry.inc("faults.csa_orphans");
            }
            if orphaned || self.core.silent(c) {
                self.core.rescan(ctx, c);
                self.forget(c);
            }
        }

        // --- 6. Per-round network throughput (live APs only).
        self.core.end_round(ctx);
    }
}

impl Process<AcornWorld, AcornEvent> for FaultProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();
        self.agents = (0..n_aps).map(|i| self.fresh_agent(i)).collect();
        self.ap_csa = vec![ApCsa::default(); n_aps];
        self.client_csa = vec![ClientCsa::default(); n_clients];
        self.trackers = (0..n_clients).map(|_| None).collect();
        self.last_assignments = ctx.world.state.assignments.clone();
        self.core.start(ctx);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        match *event {
            AcornEvent::ControlRound => self.control_round(ctx),
            AcornEvent::ApCrash(ap) => {
                // The dead AP forgets its own control-plane state: a
                // restarted AP comes back cold.
                if self.core.crash(ctx, ap) {
                    self.ap_csa[ap] = ApCsa::default();
                    self.agents[ap] = self.fresh_agent(ap);
                }
            }
            AcornEvent::ApRestart(ap) => self.core.restart(ctx, ap),
            AcornEvent::DeliverMsg(id) => match self.core.pending.remove(&id) {
                // Late beacons still prove liveness but carry no CSA
                // payload worth trusting.
                Some(Delivery::Beacon { ok, ap, client }) => {
                    if self.core.late_beacon(ctx, ok, ap, client) {
                        self.client_csa[client].note_heard(self.core.round);
                    }
                }
                Some(Delivery::Iapp { ann, to, rx_dbm }) => {
                    if ctx.world.ap_up[to] {
                        self.deliver_iapp(ctx.telemetry, ann, to, rx_dbm, ctx.now());
                    }
                }
                None => {}
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_twin_strips_every_fault() {
        let plan = FaultPlan {
            seed: 9,
            ap_mttf_s: Some(100.0),
            loss: 0.2,
            corruption: 0.05,
            delay_prob: 0.1,
            delay_max_s: 5.0,
            meas_nan: 0.01,
            meas_outlier: 0.02,
            meas_freeze: 0.03,
            ..FaultPlan::default()
        };
        let twin = plan.benign_twin();
        assert_eq!(
            twin,
            FaultPlan {
                seed: 9,
                ..FaultPlan::default()
            }
        );
    }

    #[test]
    fn fault_rng_streams_are_deterministic_and_distinct() {
        let mut a = FaultRng::new(1, 2, SALT_MEAS);
        let mut b = FaultRng::new(1, 2, SALT_MEAS);
        let mut c = FaultRng::new(1, 2, SALT_BEACON);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..1000 {
            let u = a.u01();
            assert!((0.0..1.0).contains(&u));
            let v = a.u01_open();
            assert!(v > 0.0 && v <= 1.0);
            assert!(v.ln().is_finite());
        }
    }

    #[test]
    fn corruption_always_changes_the_frame() {
        let mut rng = FaultRng::new(3, 4, SALT_BEACON);
        for _ in 0..100 {
            let original = vec![0xA5u8; 40];
            let mut copy = original.clone();
            corrupt_frame(&mut copy, &mut rng);
            assert_ne!(copy, original, "1–3 bit flips must change something");
        }
    }

    #[test]
    fn report_from_empty_telemetry_is_all_zero() {
        let tel = Telemetry::new();
        let r = ResilienceReport::from_telemetry(&tel);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.frames_sent, 0);
        assert_eq!(r.faulty_mean_bps, 0.0);
        assert_eq!(r.mean_detection_delay_s, 0.0);
    }
}
