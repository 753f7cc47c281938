//! Assembly of the distributed control plane: configuration, the shared
//! world, the [`DistributedPlane`] driver, and its centralized golden
//! twin.
//!
//! The plane decomposes a deployment into the connected components of
//! its interference graph ([`AcornController::zones`]), builds one
//! bit-exact submodel per zone **once** at startup
//! ([`NetworkModel::restrict`] — the model depends on topology and
//! association, never on channel assignments), and runs one
//! [`ZoneController`] process per zone on the deterministic event
//! runtime. Because each zone makes exactly the per-component
//! [`allocate`] call of [`AcornController::reallocate`],
//! the benign distributed run converges to the centralized allocation
//! *bit-identically* — [`DistributedPlane::centralized_twin`] is the
//! oracle the golden-twin tests compare against.
//!
//! [`AcornController::zones`]: acorn_core::AcornController::zones
//! [`AcornController::reallocate`]: acorn_core::AcornController::reallocate
//! [`allocate`]: acorn_core::allocate
//! [`NetworkModel::restrict`]: acorn_core::NetworkModel::restrict
//! [`ZoneController`]: crate::zone::ZoneController

use crate::msg::CtrlEnvelope;
use crate::zone::ZoneController;
use acorn_core::{AcornController, NetworkModel, NetworkState, NullSink};
use acorn_events::{
    AcornWorld, EventLog, FaultPlan, GauntletCounters, ProcessId, RunStats, Simulation, Telemetry,
};
use acorn_obs::names;
use acorn_topology::{ClientId, Wlan};
use serde::Serialize;
use std::collections::BTreeMap;

/// Telemetry names for the control-plane frame gauntlet (`ctrl.frames.*`),
/// keeping the distributed plane's wire statistics separate from the AP
/// control round's `faults.frames_*`.
pub const CTRL_GAUNTLET: GauntletCounters = GauntletCounters {
    sent: names::CTRL_FRAMES_SENT,
    lost: names::CTRL_FRAMES_LOST,
    corrupted: names::CTRL_FRAMES_CORRUPTED,
    delayed: names::CTRL_FRAMES_DELAYED,
};

/// APs within this distance (m) of a foreign zone's AP count as border
/// cells: gossiped in digests, forced to 20 MHz in safe mode.
const BORDER_MARGIN_M: f64 = 600.0;

/// The control plane's event alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneEvent {
    /// The `k`-th re-allocation epoch (global, 1-based). Every zone
    /// chains its own `Epoch` timer so indices agree network-wide.
    Epoch(u64),
    /// A wire copy (by in-flight frame id) reaches its target zone.
    Deliver(u64),
    /// The retransmit timer for an unacked envelope (by msg id) fires.
    Resend(u64),
    /// The zone's controller node crashes (volatile state lost).
    Crash,
    /// The crashed controller comes back up.
    Restart,
}

/// A network partition window: while active, every link touching `zone`
/// drops frames at both the send and the deliver hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// The isolated zone.
    pub zone: usize,
    /// Window start (inclusive), seconds.
    pub from_s: f64,
    /// Window end (exclusive), seconds.
    pub until_s: f64,
}

/// A scheduled controller crash/restart for one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The crashing zone.
    pub zone: usize,
    /// Crash time, seconds.
    pub at_s: f64,
    /// Restart time, seconds.
    pub restart_at_s: f64,
}

/// Full configuration of a distributed run. [`Default`] is a benign
/// 5-epoch scenario at the paper's T = 30 min re-allocation period.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Master seed: the initial random assignment and, via
    /// `seed + epoch`, every epoch's restart schedule.
    pub seed: u64,
    /// Re-allocation period T (seconds).
    pub epoch_period_s: f64,
    /// Virtual time of epoch 1.
    pub first_epoch_at_s: f64,
    /// Run horizon for [`DistributedPlane::run`] and the twin's epoch
    /// count.
    pub horizon_s: f64,
    /// Random restarts per zone per epoch (Algorithm 2 hedging).
    pub restarts: usize,
    /// Peer heartbeats may lag this many epochs before the peer counts
    /// as unheard for the safe-mode quorum.
    pub stale_epochs: u64,
    /// The wire fault gauntlet for control frames.
    pub faults: FaultPlan,
    /// Partition windows. Windows may repeat or overlap; a zone is
    /// severed at `t` when *any* window covers it. Empty = no partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled zone-controller crashes. A zone may crash any number of
    /// times over a long soak; each window is an independent
    /// crash/restart pair. Empty = no crashes.
    pub crashes: Vec<CrashWindow>,
    /// Record the executed-event log (determinism tests).
    pub record_log: bool,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            seed: 7,
            epoch_period_s: 1800.0,
            first_epoch_at_s: 60.0,
            horizon_s: 60.0 + 4.0 * 1800.0,
            restarts: 2,
            stale_epochs: 2,
            faults: FaultPlan::default(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            record_log: false,
        }
    }
}

impl PlaneConfig {
    /// Number of epochs that fire within the horizon.
    pub fn n_epochs(&self) -> u64 {
        if self.horizon_s < self.first_epoch_at_s {
            return 0;
        }
        ((self.horizon_s - self.first_epoch_at_s) / self.epoch_period_s).floor() as u64 + 1
    }

    /// The fault-free, partition-free, crash-free twin of this config —
    /// same seeds, same epoch schedule, nothing ever goes wrong.
    pub fn benign_twin(&self) -> PlaneConfig {
        PlaneConfig {
            faults: self.faults.benign_twin(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            ..self.clone()
        }
    }
}

/// Wire copies in flight, keyed by frame id.
#[derive(Debug, Default)]
pub struct NetState {
    /// Each copy's decode awaiting its `Deliver` event, taken at send by
    /// the fault gauntlet: the envelope sent for an intact copy, `None`
    /// for a damaged copy the parser rejected. Nothing is parsed on
    /// delivery.
    pub pending: BTreeMap<u64, Option<CtrlEnvelope>>,
    /// Next frame id (also the `FaultRng` gauntlet key).
    pub next_frame_id: u64,
}

/// The shared world: ground-truth deployment plus the per-zone deployed
/// state that survives controller crashes (a zone's applied-epoch
/// generation and plan fingerprint persist with the radios, like NVRAM;
/// protocol state in [`ZoneController`] does not).
pub struct PlaneWorld {
    /// The deployment.
    pub wlan: Wlan,
    /// The (cloned-per-zone-conceptually, shared-here) ACORN controller.
    pub ctl: AcornController,
    /// Ground-truth network state; zones write disjoint slices.
    pub state: NetworkState,
    /// Zone decomposition: connected components, ascending, ordered by
    /// smallest vertex — the shard order of the centralized allocator.
    pub zones: Vec<Vec<usize>>,
    /// Zone index of each AP.
    pub zone_of_ap: Vec<usize>,
    /// Per-zone submodels, restricted once at startup — bit-exact rows
    /// of the full model.
    pub zone_models: Vec<NetworkModel>,
    /// Per-zone border APs (global ids, ascending).
    pub borders: Vec<Vec<usize>>,
    /// Process id of each zone's controller.
    pub zone_pids: Vec<ProcessId>,
    /// Last epoch each zone applied to its slice.
    pub applied_epoch: Vec<u64>,
    /// Each zone's current plan fingerprint.
    pub fingerprints: Vec<u64>,
    /// Wire copies in flight, as their decodes.
    pub net: NetState,
    /// Last epoch in which any zone's slice changed (convergence metric).
    pub last_change_epoch: u64,
}

/// Per-zone slice of the final [`PlaneReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ZoneReport {
    /// Zone index.
    pub zone: usize,
    /// APs in the zone.
    pub n_aps: usize,
    /// Border APs gossiped to neighbours.
    pub border_aps: usize,
    /// Last applied epoch.
    pub applied_epoch: u64,
    /// Final plan fingerprint.
    pub fingerprint: u64,
    /// Epochs this zone spent in partition safe mode.
    pub safe_mode_epochs: u64,
}

/// What a distributed run did, aggregated from telemetry and the world.
#[derive(Debug, Clone, Serialize)]
pub struct PlaneReport {
    /// Number of zones.
    pub n_zones: usize,
    /// Epochs scheduled within the horizon.
    pub epochs_scheduled: u64,
    /// Epoch applications across all zones (`ctrl.epochs`).
    pub epochs_applied: u64,
    /// Catch-up replays within those (`ctrl.epochs.replayed`).
    pub epochs_replayed: u64,
    /// Last epoch any slice changed — the convergence epoch.
    pub last_change_epoch: u64,
    /// Envelopes originated (`ctrl.msgs.sent`).
    pub msgs_sent: u64,
    /// Envelopes acknowledged (`ctrl.msgs.acked`).
    pub msgs_acked: u64,
    /// Retransmissions (`ctrl.msgs.retransmitted`).
    pub msgs_retransmitted: u64,
    /// Duplicates discarded (`ctrl.msgs.deduped`).
    pub msgs_deduped: u64,
    /// Envelopes that exhausted retries (`ctrl.msgs.expired`).
    pub msgs_expired: u64,
    /// Sends/deliveries severed by a partition window.
    pub msgs_partition_dropped: u64,
    /// Wire frames pushed through the gauntlet (`ctrl.frames.sent`).
    pub frames_sent: u64,
    /// Frames the gauntlet dropped (`ctrl.frames.lost`).
    pub frames_lost: u64,
    /// Frames the gauntlet corrupted (`ctrl.frames.corrupted`).
    pub frames_corrupted: u64,
    /// Frames the gauntlet delayed (`ctrl.frames.delayed`).
    pub frames_delayed: u64,
    /// Frames rejected by the defensive parser (`ctrl.parse_errors`).
    pub parse_errors: u64,
    /// Safe-mode epochs across all zones (`ctrl.safe_mode_epochs`).
    pub safe_mode_epochs: u64,
    /// Safe-mode entries (`ctrl.partition.detections`).
    pub partition_detections: u64,
    /// Safe-mode exits (`ctrl.partition.heals`).
    pub partition_heals: u64,
    /// Final network throughput under the deployed plan.
    pub total_bps: f64,
    /// Per-zone details.
    pub zones: Vec<ZoneReport>,
}

/// A running distributed control plane: the simulation plus its
/// configuration-derived epoch schedule.
pub struct DistributedPlane {
    /// The underlying event simulation (world and telemetry are public
    /// for scenario drivers and tests).
    pub sim: Simulation<PlaneWorld, PlaneEvent>,
    cfg: PlaneConfig,
}

impl DistributedPlane {
    /// Builds the plane: associates every client (Algorithm 1, arrival
    /// order) through one [`AcornWorld`], whose maintained cells, edges
    /// and cached delays give the controller's candidates bit for bit
    /// without rebuilding the model per client; decomposes into zones,
    /// restricts the shared model per zone, and registers one
    /// [`ZoneController`] per zone (ascending — registration order fixes
    /// event sequence numbers). [`centralized_twin`] associates through
    /// the controller itself, the independent oracle.
    pub fn new(wlan: Wlan, ctl: AcornController, cfg: PlaneConfig) -> DistributedPlane {
        let mut joined = AcornWorld::new(wlan, ctl, cfg.seed);
        for c in 0..joined.wlan.clients.len() {
            joined.associate(c, &NullSink);
        }
        let AcornWorld {
            wlan, ctl, state, ..
        } = joined;
        let zones = ctl.zones(&wlan, &state);
        let n_zones = zones.len();
        let mut zone_of_ap = vec![0usize; wlan.aps.len()];
        for (z, nodes) in zones.iter().enumerate() {
            for &n in nodes {
                zone_of_ap[n] = z;
            }
        }
        let model = ctl.build_model(&wlan, &state);
        let zone_models: Vec<NetworkModel> = zones.iter().map(|z| model.restrict(z)).collect();
        let borders: Vec<Vec<usize>> = zones
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&a| {
                        wlan.aps.iter().enumerate().any(|(b, ap_b)| {
                            zone_of_ap[b] != zone_of_ap[a]
                                && wlan.aps[a].pos.distance(&ap_b.pos) <= BORDER_MARGIN_M
                        })
                    })
                    .collect()
            })
            .collect();
        let world = PlaneWorld {
            state,
            zone_of_ap,
            zone_models,
            borders,
            zone_pids: (0..n_zones).map(ProcessId).collect(),
            applied_epoch: vec![0; n_zones],
            fingerprints: vec![0; n_zones],
            net: NetState::default(),
            last_change_epoch: 0,
            zones,
            wlan,
            ctl,
        };
        let mut sim = Simulation::new(world);
        sim.record_events(cfg.record_log);
        for z in 0..n_zones {
            let pid = sim.add_process(Box::new(ZoneController::new(z, n_zones, cfg.clone())));
            debug_assert_eq!(pid, sim.world.zone_pids[z]);
        }
        DistributedPlane { sim, cfg }
    }

    /// Runs (or resumes) the plane up to absolute time `t`.
    pub fn run_until(&mut self, t: f64) -> RunStats {
        self.sim.run(t)
    }

    /// Runs the plane to its configured horizon. Epoch timers stop
    /// chaining past the horizon, but gossip and retransmits scheduled
    /// by the final epoch may still be in flight afterwards — use
    /// [`DistributedPlane::run_to_quiescence`] to drain them.
    pub fn run(&mut self) -> RunStats {
        self.sim.run(self.cfg.horizon_s)
    }

    /// Runs every epoch within the horizon *and* drains all remaining
    /// deliveries, acks, and retransmit timers. Terminates because the
    /// epoch chain is horizon-bounded and unacked envelopes expire
    /// after eight resends.
    pub fn run_to_quiescence(&mut self) -> RunStats {
        self.sim.run_to_completion()
    }

    /// The configuration the plane was built with.
    pub fn config(&self) -> &PlaneConfig {
        &self.cfg
    }

    /// The deployed ground-truth state.
    pub fn state(&self) -> &NetworkState {
        &self.sim.world.state
    }

    /// The telemetry recorder.
    pub fn telemetry(&self) -> &Telemetry {
        &self.sim.telemetry
    }

    /// The executed-event log, when recording was enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.sim.event_log()
    }

    /// The centralized golden twin: the allocation a single controller
    /// computes by running the same association and per-component
    /// `reallocate` schedule over the full deployment. A benign
    /// distributed run must match it bit-for-bit.
    pub fn centralized_twin(&self) -> NetworkState {
        let w = &self.sim.world;
        centralized_twin(&w.wlan, &w.ctl, &self.cfg)
    }

    /// Aggregates the run's outcome.
    pub fn report(&self) -> PlaneReport {
        let tel = &self.sim.telemetry;
        let w = &self.sim.world;
        let zones = (0..w.zones.len())
            .map(|z| ZoneReport {
                zone: z,
                n_aps: w.zones[z].len(),
                border_aps: w.borders[z].len(),
                applied_epoch: w.applied_epoch[z],
                fingerprint: w.fingerprints[z],
                safe_mode_epochs: tel.counter(&format!("ctrl.zone.{z}.safe_mode_epochs")),
            })
            .collect();
        PlaneReport {
            n_zones: w.zones.len(),
            epochs_scheduled: self.cfg.n_epochs(),
            epochs_applied: tel.counter(names::CTRL_EPOCHS),
            epochs_replayed: tel.counter(names::CTRL_EPOCHS_REPLAYED),
            last_change_epoch: w.last_change_epoch,
            msgs_sent: tel.counter(names::CTRL_MSGS_SENT),
            msgs_acked: tel.counter(names::CTRL_MSGS_ACKED),
            msgs_retransmitted: tel.counter(names::CTRL_MSGS_RETRANSMITTED),
            msgs_deduped: tel.counter(names::CTRL_MSGS_DEDUPED),
            msgs_expired: tel.counter(names::CTRL_MSGS_EXPIRED),
            msgs_partition_dropped: tel.counter(names::CTRL_MSGS_PARTITION_DROPPED),
            frames_sent: tel.counter(names::CTRL_FRAMES_SENT),
            frames_lost: tel.counter(names::CTRL_FRAMES_LOST),
            frames_corrupted: tel.counter(names::CTRL_FRAMES_CORRUPTED),
            frames_delayed: tel.counter(names::CTRL_FRAMES_DELAYED),
            parse_errors: tel.counter(names::CTRL_PARSE_ERRORS),
            safe_mode_epochs: tel.counter(names::CTRL_SAFE_MODE_EPOCHS),
            partition_detections: tel.counter(names::CTRL_PARTITION_DETECTIONS),
            partition_heals: tel.counter(names::CTRL_PARTITION_HEALS),
            total_bps: w.ctl.total_throughput_bps(&w.wlan, &w.state, &[]),
            zones,
        }
    }
}

/// The centralized allocation trajectory for a deployment under a plane
/// config: Algorithm 1 association in client order, then one
/// per-component [`AcornController::reallocate`] per scheduled epoch with
/// seed `cfg.seed + e`.
pub fn centralized_twin(wlan: &Wlan, ctl: &AcornController, cfg: &PlaneConfig) -> NetworkState {
    let mut state = ctl.new_state(wlan, cfg.seed);
    for c in 0..wlan.clients.len() {
        ctl.associate(wlan, &mut state, ClientId(c), &NullSink);
    }
    // Reallocation never moves an association, so one model serves
    // every epoch.
    let model = ctl.build_model(wlan, &state);
    for e in 1..=cfg.n_epochs() {
        ctl.reallocate(
            &model,
            &mut state,
            cfg.restarts,
            cfg.seed.wrapping_add(e),
            true,
            &NullSink,
        );
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::AcornConfig;
    use acorn_topology::Point;

    /// Two well-separated AP pairs → two zones, one client per AP.
    fn two_zone_wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(5000.0, 0.0),
                Point::new(5060.0, 0.0),
            ],
            vec![
                Point::new(3.0, 0.0),
                Point::new(57.0, 0.0),
                Point::new(5003.0, 0.0),
                Point::new(5057.0, 0.0),
            ],
            21,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w.radio.tx_power_dbm = 5.0;
        w
    }

    fn controller() -> AcornController {
        AcornController::new(AcornConfig::default())
    }

    fn short_cfg() -> PlaneConfig {
        PlaneConfig {
            seed: 11,
            epoch_period_s: 100.0,
            first_epoch_at_s: 10.0,
            horizon_s: 10.0 + 3.0 * 100.0,
            restarts: 2,
            ..PlaneConfig::default()
        }
    }

    #[test]
    fn benign_run_matches_the_centralized_twin() {
        let cfg = short_cfg();
        assert_eq!(cfg.n_epochs(), 4);
        let mut plane = DistributedPlane::new(two_zone_wlan(), controller(), cfg);
        plane.run();
        let twin = plane.centralized_twin();
        assert_eq!(plane.state().assignments, twin.assignments);
        assert_eq!(plane.state().operating_width, twin.operating_width);
        assert_eq!(plane.state().assoc, twin.assoc);
        let r = plane.report();
        assert_eq!(r.n_zones, 2);
        assert_eq!(plane.sim.world.applied_epoch, vec![4, 4]);
        assert_eq!(r.epochs_applied, 8, "2 zones x 4 epochs");
        assert_eq!(r.epochs_replayed, 0);
        assert_eq!(r.safe_mode_epochs, 0);
        assert_eq!(r.parse_errors, 0);
    }

    #[test]
    fn acks_cancel_every_retransmit_timer_on_a_clean_wire() {
        let mut plane = DistributedPlane::new(two_zone_wlan(), controller(), short_cfg());
        plane.run_to_quiescence();
        let r = plane.report();
        assert!(r.msgs_acked > 0);
        assert_eq!(r.msgs_retransmitted, 0, "no loss, no delay, no resends");
        assert_eq!(r.msgs_expired, 0);
        assert_eq!(
            plane.telemetry().counter(names::CTRL_RESEND_CANCELLED),
            r.msgs_acked,
            "every ack must tombstone a live resend timer"
        );
    }

    #[test]
    fn lossy_corrupt_wire_still_converges_to_the_twin() {
        let mut cfg = short_cfg();
        cfg.faults.loss = 0.3;
        cfg.faults.corruption = 0.2;
        let mut plane = DistributedPlane::new(two_zone_wlan(), controller(), cfg);
        plane.run_to_quiescence();
        let twin = plane.centralized_twin();
        assert_eq!(plane.state().assignments, twin.assignments);
        let r = plane.report();
        assert!(r.frames_lost > 0, "loss must have fired: {r:?}");
        assert!(r.frames_corrupted > 0, "corruption must have fired: {r:?}");
        assert_eq!(
            r.parse_errors, r.frames_corrupted,
            "every corrupted frame is caught by the FCS, none panic"
        );
        assert!(r.msgs_retransmitted > 0, "lost envelopes must retry");
    }

    #[test]
    fn delayed_acks_trigger_retransmits_that_dedup_exactly_once() {
        let mut cfg = short_cfg();
        // Every frame is delayed past the base RTO: originals arrive,
        // acks lag, the sender retransmits, the receiver dedups.
        cfg.faults.delay_prob = 1.0;
        cfg.faults.delay_max_s = 12.0;
        let mut plane = DistributedPlane::new(two_zone_wlan(), controller(), cfg);
        plane.run_to_quiescence();
        let twin = plane.centralized_twin();
        assert_eq!(plane.state().assignments, twin.assignments);
        let r = plane.report();
        assert!(
            r.msgs_retransmitted > 0,
            "delays past RTO must resend: {r:?}"
        );
        assert!(r.msgs_deduped > 0, "duplicates must be deduped: {r:?}");
        assert_eq!(r.msgs_expired, 0);
        assert_eq!(r.parse_errors, 0);
    }

    #[test]
    fn benign_twin_strips_every_fault() {
        let mut cfg = short_cfg();
        cfg.faults.loss = 0.5;
        cfg.partitions = vec![
            PartitionWindow {
                zone: 0,
                from_s: 0.0,
                until_s: 1.0,
            },
            PartitionWindow {
                zone: 0,
                from_s: 40.0,
                until_s: 50.0,
            },
        ];
        cfg.crashes = vec![CrashWindow {
            zone: 1,
            at_s: 5.0,
            restart_at_s: 6.0,
        }];
        let benign = cfg.benign_twin();
        let clean = FaultPlan {
            seed: cfg.faults.seed,
            control_period_s: cfg.faults.control_period_s,
            ..FaultPlan::default()
        };
        assert_eq!(benign.faults, clean);
        assert!(benign.partitions.is_empty() && benign.crashes.is_empty());
        assert_eq!(benign.seed, cfg.seed);
        assert_eq!(benign.n_epochs(), cfg.n_epochs());
    }
}
