//! The [`ZoneController`] process: one control-plane node per
//! interference-graph zone.
//!
//! Each controller runs the full protocol stack on the virtual clock:
//!
//! * **Epochs.** A self-chained `Epoch(k)` timer (global, 1-based `k`)
//!   fires every re-allocation period. A healthy controller *catch-up
//!   replays* every epoch it has not yet applied —
//!   `applied_epoch+1 ..= k` — through [`allocate`] on the zone's
//!   submodel as component `zone`, with the per-epoch seed
//!   `cfg.seed + e`. One mechanism covers the normal single-step advance,
//!   crash recovery, and partition healing, and it is what makes the
//!   benign trajectory bit-identical to the centralized golden twin.
//! * **Reliable gossip.** After applying, the zone batches one
//!   [`CtrlEnvelope`] per peer (heartbeat + border digests + switches)
//!   and tracks it in a per-peer unacked map with a retransmit timer
//!   under capped exponential [`backoff_for`]. Acks cancel the timer
//!   (an [`EventQueue`] tombstone); duplicate envelopes are deduped by
//!   `(from, msg_id)` and re-acked without reprocessing.
//! * **Failure handling.** Every frame crosses the loss/corruption/delay
//!   gauntlet; a corrupted frame fails its FCS at parse and is dropped
//!   for the retransmit timer to recover. When a majority of peers go
//!   quiet the zone enters *safe mode*: it freezes its last-known-good
//!   plan, forces border APs down to 20 MHz, and stops advancing its
//!   applied epoch until quorum returns.
//!
//! [`allocate`]: acorn_core::allocate
//! [`EventQueue`]: acorn_events::EventQueue

use crate::msg::{
    encode_envelope, fingerprint_slice, parse_envelope, CtrlEnvelope, CtrlMsg, SALT_CTRL,
};
use crate::plane::{PlaneConfig, PlaneEvent, PlaneWorld, CTRL_GAUNTLET};
use acorn_core::{allocate, AllocSpec};
use acorn_events::{Ctx, FaultRng, Process};
use acorn_obs::{names, RecordingSink};
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ChannelAssignment};
use std::collections::{BTreeMap, BTreeSet};

/// One-way control-link latency (s).
const LINK_LATENCY_S: f64 = 0.05;
/// Initial retransmit timeout (s).
const RTO_BASE_S: f64 = 5.0;
/// Retransmit backoff cap (s).
const RTO_CAP_S: f64 = 60.0;
/// Resend attempts before an envelope expires.
const MAX_ATTEMPTS: u32 = 8;

/// Retransmit backoff for the `attempt`-th resend (0-based):
/// `RTO_BASE_S·2^a` (5 s), capped at `RTO_CAP_S` (60 s).
pub fn backoff_for(attempt: u32) -> f64 {
    (RTO_BASE_S * f64::powi(2.0, attempt.min(63) as i32)).min(RTO_CAP_S)
}

/// An envelope awaiting acknowledgement.
struct Pending {
    to: usize,
    msgs: Vec<CtrlMsg>,
    attempt: u32,
    resend: acorn_events::EventId,
}

/// One zone's control-plane node. Volatile protocol state (unacked map,
/// dedup sets, peer liveness) lives here and is wiped by a crash; the
/// deployed plan and its generation counter live in [`PlaneWorld`] —
/// they persist across controller restarts the way a deployed radio
/// configuration does.
pub struct ZoneController {
    zone: usize,
    peers: Vec<usize>,
    cfg: PlaneConfig,
    up: bool,
    safe_mode: bool,
    next_msg_id: u64,
    unacked: BTreeMap<u64, Pending>,
    seen: BTreeMap<usize, BTreeSet<u64>>,
    last_heard: BTreeMap<usize, u64>,
}

impl ZoneController {
    /// A controller for `zone` among `n_zones` total.
    pub fn new(zone: usize, n_zones: usize, cfg: PlaneConfig) -> ZoneController {
        ZoneController {
            zone,
            peers: (0..n_zones).filter(|&p| p != zone).collect(),
            cfg,
            up: true,
            safe_mode: false,
            next_msg_id: 0,
            unacked: BTreeMap::new(),
            seen: BTreeMap::new(),
            last_heard: BTreeMap::new(),
        }
    }

    /// Whether any partition window severs `zone`'s links at time `t`.
    fn partitioned(&self, zone: usize, t: f64) -> bool {
        self.cfg
            .partitions
            .iter()
            .any(|w| w.zone == zone && t >= w.from_s && t < w.until_s)
    }

    /// Pushes one envelope through the wire: encode → partition check →
    /// fault gauntlet → schedule delivery. Loss and partition drops are
    /// silent here; the retransmit timer owns recovery.
    fn transmit(&mut self, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>, env: &CtrlEnvelope) {
        let now = ctx.now();
        let to = env.to as usize;
        if self.partitioned(self.zone, now) || self.partitioned(to, now) {
            ctx.telemetry.inc(names::CTRL_MSGS_PARTITION_DROPPED);
            return;
        }
        let bytes = encode_envelope(env);
        let (frame_id, target) = {
            let w = &mut *ctx.world;
            let id = w.net.next_frame_id;
            w.net.next_frame_id += 1;
            (id, w.zone_pids[to])
        };
        let mut rng = FaultRng::new(self.cfg.faults.seed, frame_id, SALT_CTRL);
        let rolled = self
            .cfg
            .faults
            .roll_copy(ctx.telemetry, &mut rng, &bytes, &CTRL_GAUNTLET);
        if let Some((frame, delay)) = rolled {
            ctx.world.net.pending.insert(frame_id, frame.into_owned());
            let t = now + LINK_LATENCY_S + delay.unwrap_or(0.0);
            ctx.send_at(t, target, PlaneEvent::Deliver(frame_id));
        }
    }

    /// Originates a fresh envelope to `to`, arming the retransmit timer
    /// when the payload demands acknowledgement.
    fn send_new(
        &mut self,
        ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>,
        to: usize,
        msgs: Vec<CtrlMsg>,
    ) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.telemetry.inc(names::CTRL_MSGS_SENT);
        let env = CtrlEnvelope {
            from: self.zone as u16,
            to: to as u16,
            msg_id,
            msgs,
        };
        self.transmit(ctx, &env);
        if env.needs_ack() {
            let rto = backoff_for(0);
            let resend = ctx.schedule_after(rto, PlaneEvent::Resend(msg_id));
            self.unacked.insert(
                msg_id,
                Pending {
                    to,
                    msgs: env.msgs,
                    attempt: 0,
                    resend,
                },
            );
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>, to: usize, ack_of: u64) {
        self.send_new(ctx, to, vec![CtrlMsg::Ack { ack_of }]);
    }

    /// A safe-mode epoch: hold the last-known-good plan, force border
    /// cells to their 20 MHz fallback, keep heartbeating, and do *not*
    /// advance the applied epoch — the healing catch-up replays the gap.
    fn safe_epoch(&mut self, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>, k: u64) {
        if !self.safe_mode {
            self.safe_mode = true;
            ctx.telemetry.inc(names::CTRL_PARTITION_DETECTIONS);
        }
        let zone = self.zone;
        {
            let w = &mut *ctx.world;
            for i in 0..w.borders[zone].len() {
                let ap = w.borders[zone][i];
                w.state.operating_width[ap] = ChannelWidth::Ht20;
            }
        }
        ctx.telemetry.inc(names::CTRL_SAFE_MODE_EPOCHS);
        let per_zone = format!("ctrl.zone.{zone}.safe_mode_epochs");
        ctx.telemetry.inc(&per_zone);
        let heartbeat = CtrlMsg::IappState {
            zone: zone as u16,
            epoch: k,
            fingerprint: ctx.world.fingerprints[zone],
            safe_mode: true,
        };
        for p in self.peers.clone() {
            self.send_new(ctx, p, vec![heartbeat]);
        }
    }

    fn on_epoch(&mut self, k: u64, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>) {
        // Chain the next epoch even while crashed or partitioned — a
        // zone keeps a live timer chain so epoch indices stay global —
        // but stop at the horizon so a drained queue means quiescence.
        let next_t = self.cfg.first_epoch_at_s + k as f64 * self.cfg.epoch_period_s;
        if next_t <= self.cfg.horizon_s {
            ctx.schedule_at(next_t, PlaneEvent::Epoch(k + 1));
        }
        if !self.up {
            return;
        }
        let stale = self
            .peers
            .iter()
            .filter(|&&p| {
                k.saturating_sub(self.last_heard.get(&p).copied().unwrap_or(0))
                    > self.cfg.stale_epochs
            })
            .count();
        if !self.peers.is_empty() && 2 * stale > self.peers.len() {
            self.safe_epoch(ctx, k);
            return;
        }
        if self.safe_mode {
            self.safe_mode = false;
            ctx.telemetry.inc(names::CTRL_PARTITION_HEALS);
        }
        let zone = self.zone;
        let nodes: Vec<usize> = ctx.world.zones[zone].clone();
        let before: Vec<ChannelAssignment> = nodes
            .iter()
            .map(|&n| ctx.world.state.assignments[n])
            .collect();
        let from_e = ctx.world.applied_epoch[zone] + 1;
        for e in from_e..=k {
            let sink = RecordingSink::new();
            {
                // The zone's slice of the centralized per-component
                // reallocation: same submodel, same start, same seeds.
                let w = &mut *ctx.world;
                let initial: Vec<ChannelAssignment> =
                    nodes.iter().map(|&n| w.state.assignments[n]).collect();
                let spec = AllocSpec {
                    initial: Some(&initial),
                    restarts: self.cfg.restarts,
                    seed: self.cfg.seed.wrapping_add(e),
                    component: zone,
                };
                let (plan, config) = (&w.ctl.config.plan, &w.ctl.config.allocation);
                let r = allocate(&w.zone_models[zone], plan, config, &spec, &sink);
                for (local, &global) in nodes.iter().enumerate() {
                    w.state.assignments[global] = r.assignments[local];
                    w.state.operating_width[global] = r.assignments[local].width();
                }
            }
            sink.drain_into(ctx.telemetry);
            ctx.telemetry.inc(names::CTRL_EPOCHS);
            if e < k {
                ctx.telemetry.inc(names::CTRL_EPOCHS_REPLAYED);
            }
        }
        ctx.world.applied_epoch[zone] = k;
        let after: Vec<ChannelAssignment> = nodes
            .iter()
            .map(|&n| ctx.world.state.assignments[n])
            .collect();
        let fp = fingerprint_slice(&after);
        ctx.world.fingerprints[zone] = fp;
        let changed: Vec<(usize, ChannelAssignment)> = nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| before[i] != after[i])
            .map(|(i, &n)| (n, after[i]))
            .collect();
        if !changed.is_empty() {
            let w = &mut *ctx.world;
            w.last_change_epoch = w.last_change_epoch.max(k);
        }
        let digests: Vec<CtrlMsg> = {
            let w = &*ctx.world;
            w.borders[zone]
                .iter()
                .map(|&ap| CtrlMsg::BeaconDigest {
                    ap: ap as u16,
                    assignment: w.state.assignments[ap],
                    n_clients: w
                        .state
                        .assoc
                        .iter()
                        .filter(|a| **a == Some(ApId(ap)))
                        .count() as u16,
                })
                .collect()
        };
        let heartbeat = CtrlMsg::IappState {
            zone: zone as u16,
            epoch: k,
            fingerprint: fp,
            safe_mode: false,
        };
        let switches: Vec<CtrlMsg> = changed
            .iter()
            .map(|&(ap, a)| CtrlMsg::ProposedSwitch {
                ap: ap as u16,
                assignment: a,
                epoch: k,
            })
            .collect();
        for p in self.peers.clone() {
            let mut msgs = Vec::with_capacity(1 + digests.len() + switches.len());
            msgs.push(heartbeat);
            msgs.extend(digests.iter().copied());
            msgs.extend(switches.iter().copied());
            self.send_new(ctx, p, msgs);
        }
    }

    fn on_deliver(&mut self, frame_id: u64, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>) {
        let Some(frame) = ctx.world.net.pending.remove(&frame_id) else {
            return;
        };
        if !self.up {
            return;
        }
        let now = ctx.now();
        if self.partitioned(self.zone, now) {
            ctx.telemetry.inc(names::CTRL_MSGS_PARTITION_DROPPED);
            return;
        }
        let env = match parse_envelope(&frame) {
            Ok(env) => env,
            Err(_) => {
                // Corruption lands here as a typed error — never a panic.
                ctx.telemetry.inc(names::CTRL_PARSE_ERRORS);
                return;
            }
        };
        let from = env.from as usize;
        if self.partitioned(from, now) {
            // In flight when the window closed around its sender.
            ctx.telemetry.inc(names::CTRL_MSGS_PARTITION_DROPPED);
            return;
        }
        let needs_ack = env.needs_ack();
        if !self.seen.entry(from).or_default().insert(env.msg_id) {
            ctx.telemetry.inc(names::CTRL_MSGS_DEDUPED);
            if needs_ack {
                self.send_ack(ctx, from, env.msg_id);
            }
            return;
        }
        for msg in &env.msgs {
            match *msg {
                CtrlMsg::BeaconDigest { .. } => ctx.telemetry.inc(names::CTRL_DIGESTS_RX),
                CtrlMsg::IappState { zone, epoch, .. } => {
                    let heard = self.last_heard.entry(zone as usize).or_insert(0);
                    *heard = (*heard).max(epoch);
                }
                CtrlMsg::ProposedSwitch { .. } => ctx.telemetry.inc(names::CTRL_SWITCHES_RX),
                CtrlMsg::Ack { ack_of } => {
                    if let Some(p) = self.unacked.remove(&ack_of) {
                        ctx.telemetry.inc(names::CTRL_MSGS_ACKED);
                        if ctx.cancel(p.resend) {
                            ctx.telemetry.inc(names::CTRL_RESEND_CANCELLED);
                        }
                    }
                }
            }
        }
        if needs_ack {
            self.send_ack(ctx, from, env.msg_id);
        }
    }

    fn on_resend(&mut self, msg_id: u64, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>) {
        if !self.up {
            return;
        }
        let Some((to, msgs, attempt)) = self
            .unacked
            .get(&msg_id)
            .map(|p| (p.to, p.msgs.clone(), p.attempt))
        else {
            return;
        };
        if attempt + 1 > MAX_ATTEMPTS {
            self.unacked.remove(&msg_id);
            ctx.telemetry.inc(names::CTRL_MSGS_EXPIRED);
            return;
        }
        ctx.telemetry.inc(names::CTRL_MSGS_RETRANSMITTED);
        let env = CtrlEnvelope {
            from: self.zone as u16,
            to: to as u16,
            msg_id,
            msgs,
        };
        self.transmit(ctx, &env);
        let rto = backoff_for(attempt + 1);
        let resend = ctx.schedule_after(rto, PlaneEvent::Resend(msg_id));
        let p = self.unacked.get_mut(&msg_id).expect("checked above");
        p.attempt = attempt + 1;
        p.resend = resend;
    }
}

impl Process<PlaneWorld, PlaneEvent> for ZoneController {
    fn start(&mut self, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>) {
        ctx.schedule_at(self.cfg.first_epoch_at_s, PlaneEvent::Epoch(1));
        for cw in &self.cfg.crashes {
            if cw.zone == self.zone {
                ctx.schedule_at(cw.at_s, PlaneEvent::Crash);
                ctx.schedule_at(cw.restart_at_s, PlaneEvent::Restart);
            }
        }
    }

    fn handle(&mut self, event: &PlaneEvent, ctx: &mut Ctx<'_, PlaneWorld, PlaneEvent>) {
        match *event {
            PlaneEvent::Epoch(k) => self.on_epoch(k, ctx),
            PlaneEvent::Deliver(frame_id) => self.on_deliver(frame_id, ctx),
            PlaneEvent::Resend(msg_id) => self.on_resend(msg_id, ctx),
            PlaneEvent::Crash => {
                self.up = false;
                // Volatile protocol state dies with the process; the
                // deployed plan and its generation in the world persist.
                for (_, p) in std::mem::take(&mut self.unacked) {
                    ctx.cancel(p.resend);
                }
                self.seen.clear();
                self.last_heard.clear();
                self.safe_mode = false;
            }
            PlaneEvent::Restart => {
                self.up = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap() {
        let rtos: Vec<f64> = (0..8).map(backoff_for).collect();
        assert_eq!(rtos, vec![5.0, 10.0, 20.0, 40.0, 60.0, 60.0, 60.0, 60.0]);
        // Huge attempt counts must not overflow into NaN/inf.
        assert_eq!(backoff_for(u32::MAX), 60.0);
    }
}
