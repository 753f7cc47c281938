//! The workspace metric namespace.
//!
//! Every instrumented call site names its metrics through these
//! constants, so events, sim, and bench binaries agree on what a metric
//! is called and DESIGN.md §12 can document the namespace in one place.
//! Names are dotted, lowercase, `layer.metric`; pre-existing
//! `acorn-events` metrics (`controller.*`, `faults.*`, `association.*`)
//! keep their historical names.

/// `choose_ap` invocations (Algorithm 1 rankings performed).
pub const ASSOC_CHOICES: &str = "assoc.choices";
/// Candidates examined across all `choose_ap` calls.
pub const ASSOC_CANDIDATES: &str = "assoc.candidates";
/// Candidates whose utility evaluated to NaN and were screened to the
/// deterministic lowest-preference policy.
pub const ASSOC_NAN_UTILITIES: &str = "assoc.nan_utilities";

/// Greedy allocation runs (Algorithm 2 invocations).
pub const ALLOC_RUNS: &str = "alloc.runs";
/// Greedy rounds executed across all runs.
pub const ALLOC_ROUNDS: &str = "alloc.rounds";
/// Candidate (cell, colour) switches evaluated across all rounds.
pub const ALLOC_ITERATIONS: &str = "alloc.iterations";
/// Switches actually applied (a round found an improving move).
pub const ALLOC_SWITCHES: &str = "alloc.switches";
/// Random restarts `allocate` ran to hedge its start (one per random
/// attempt when `restarts > 0`).
pub const ALLOC_RESTARTS: &str = "alloc.restarts";
/// Conflict-graph components a per-component `reallocate` solved
/// separately (summed per epoch; 1 when the graph is connected).
pub const ALLOC_SHARDS: &str = "alloc.shards";

/// Full `cell_base_bps` table rebuilds on the throughput model.
pub const MODEL_REBUILDS: &str = "model.cell_base_rebuilds";
/// O(Δ) `delta_bps` evaluations served from the cached table.
pub const MODEL_DELTA_EVALS: &str = "model.delta_evals";
/// Hoisted `best_switch` scans (each replaces a per-colour delta loop).
pub const MODEL_BEST_SWITCH_SCANS: &str = "model.best_switch_scans";

/// Memoized goodput-table lookups answered from the table.
pub const TABLE_HITS: &str = "phy.table.hits";
/// Goodput-table lookups outside the tabulated SNR range (answered by
/// the exact estimator instead).
pub const TABLE_MISSES: &str = "phy.table.misses";
/// Goodput-table (re)builds.
pub const TABLE_REBUILDS: &str = "phy.table.rebuilds";
/// Gauge: max absolute goodput quantization error (bits/s) observed by
/// the table's build-time self-check sweep.
pub const TABLE_MAX_QUANT_ERROR: &str = "phy.table.max_quant_error_bps";

/// Reallocation epochs of the exact event world's timer.
pub const CONTROLLER_EPOCHS: &str = "controller.obs_epochs";
/// Predicted network throughput (bits/s) the exact event world's last
/// reallocation epoch deployed.
pub const CONTROLLER_TOTAL_BPS: &str = "controller.total_bps";
/// Reallocation epochs spent in safe mode (historical name, also read
/// by `ResilienceReport`).
pub const CONTROLLER_SAFE_MODE_EPOCHS: &str = "controller.safe_mode_epochs";

/// CSA countdowns scheduled by the fault-layer control round.
pub const CSA_SCHEDULED: &str = "csa.scheduled";
/// CSA announcements ticked out mid-countdown.
pub const CSA_ANNOUNCED: &str = "csa.announced";
/// CSA countdowns that reached SwitchNow.
pub const CSA_SWITCHED: &str = "csa.switched";

/// IAPP conflict entries sitting in hold-down, summed per control round.
pub const IAPP_HOLD_DOWNS: &str = "iapp.hold_downs";

/// Baseband packets pushed through `run_packet`.
pub const BASEBAND_PACKETS: &str = "baseband.packets";
/// Baseband pipeline stage spans (entry counts; wall time only for a
/// sink that opts in, such as perfbench's stage timer).
pub const BASEBAND_STAGE_ENCODE: &str = "baseband.stage.encode";
/// Space-time/SISO stream construction stage.
pub const BASEBAND_STAGE_STREAMS: &str = "baseband.stage.streams";
/// Channel convolution + AWGN stage.
pub const BASEBAND_STAGE_CHANNEL: &str = "baseband.stage.channel";
/// Preamble detection / synchronization stage.
pub const BASEBAND_STAGE_SYNC: &str = "baseband.stage.sync";
/// Combining / equalization / EVM stage.
pub const BASEBAND_STAGE_RECEIVE: &str = "baseband.stage.receive";
/// Demodulation + Viterbi decode stage.
pub const BASEBAND_STAGE_DECODE: &str = "baseband.stage.decode";
/// Packets that failed preamble sync (pipeline aborted at stage 6).
pub const BASEBAND_SYNC_FAILURES: &str = "baseband.sync_failures";

/// Distributed-control-plane envelopes sent (originals, not retransmit
/// copies) by zone controllers.
pub const CTRL_MSGS_SENT: &str = "ctrl.msgs.sent";
/// Envelopes confirmed by an `Ack` from the receiving zone.
pub const CTRL_MSGS_ACKED: &str = "ctrl.msgs.acked";
/// Retransmission copies sent after an ack timeout.
pub const CTRL_MSGS_RETRANSMITTED: &str = "ctrl.msgs.retransmitted";
/// Duplicate envelope deliveries suppressed by the receive-side dedup
/// (the duplicate is re-acked but not re-processed).
pub const CTRL_MSGS_DEDUPED: &str = "ctrl.msgs.deduped";
/// Envelopes abandoned after the retransmit-attempt cap.
pub const CTRL_MSGS_EXPIRED: &str = "ctrl.msgs.expired";
/// Envelope copies silently dropped by an active network partition.
pub const CTRL_MSGS_PARTITION_DROPPED: &str = "ctrl.msgs.partition_dropped";
/// Pending retransmit timers cancelled by an arriving ack (the
/// event-queue tombstone path).
pub const CTRL_RESEND_CANCELLED: &str = "ctrl.resend.cancelled";
/// Control-plane frame copies pushed through the fault gauntlet.
pub const CTRL_FRAMES_SENT: &str = "ctrl.frames.sent";
/// Control-plane frame copies dropped by the loss process.
pub const CTRL_FRAMES_LOST: &str = "ctrl.frames.lost";
/// Control-plane frame copies bit-corrupted in flight.
pub const CTRL_FRAMES_CORRUPTED: &str = "ctrl.frames.corrupted";
/// Control-plane frame copies delivered late.
pub const CTRL_FRAMES_DELAYED: &str = "ctrl.frames.delayed";
/// Delivered control-plane frames the parser rejected (typed errors —
/// corruption is caught by the FCS, never by a panic).
pub const CTRL_PARSE_ERRORS: &str = "ctrl.parse_errors";
/// Zone re-allocation epochs applied (including catch-up replays).
pub const CTRL_EPOCHS: &str = "ctrl.epochs";
/// Catch-up epochs replayed after a crash or partition heal.
pub const CTRL_EPOCHS_REPLAYED: &str = "ctrl.epochs.replayed";
/// Zone epochs spent in safe mode (last-known-good plan, border cells
/// forced to 20 MHz). Per-zone counts live under
/// `ctrl.zone.<z>.safe_mode_epochs`.
pub const CTRL_SAFE_MODE_EPOCHS: &str = "ctrl.safe_mode_epochs";
/// Transitions into safe mode (quorum of peers unheard).
pub const CTRL_PARTITION_DETECTIONS: &str = "ctrl.partition.detections";
/// Transitions out of safe mode (peer quorum heard again).
pub const CTRL_PARTITION_HEALS: &str = "ctrl.partition.heals";
/// Border-cell beacon digests received from peer zones.
pub const CTRL_DIGESTS_RX: &str = "ctrl.digests.rx";
/// Proposed channel switches received from peer zones.
pub const CTRL_SWITCHES_RX: &str = "ctrl.switches.rx";
