//! # acorn-ctrlplane — the distributed control plane
//!
//! Production ACORN does not run as one process: a city-scale deployment
//! splits into interference *zones* (connected components of the
//! conflict graph), each owned by a zone controller that runs
//! Algorithms 1/2 locally and coordinates with its peers over an
//! IAPP-style message protocol. This crate builds that plane on the
//! deterministic event runtime of `acorn-events`:
//!
//! * [`msg`] — the typed message taxonomy ([`CtrlMsg`],
//!   [`CtrlEnvelope`]) and its envelope frame, built on the same
//!   `acorn_core::wire` codec as beacons and IAPP announcements (CRC-32
//!   FCS, defensive parsing that fails with a typed [`WireError`]).
//! * [`zone`] — the [`ZoneController`] process: epoch catch-up replay,
//!   reliable batched gossip (per-peer unacked maps, capped exponential
//!   backoff, dedup-on-receive), and partition safe mode.
//! * [`plane`] — assembly and oracle: [`DistributedPlane`] wires one
//!   controller per zone over a shared world; its
//!   [`centralized_twin`] recomputes the allocation a single
//!   centralized controller would deploy.
//!
//! ## The golden-twin contract
//!
//! The centralized controller runs Algorithm 2 per connected component
//! ([`AcornController::reallocate`] with `per_component`), calling
//! [`allocate`] on each component's restricted submodel with the
//! component's index. Each zone controller makes that same call for its
//! own zone against a bit-exact restricted submodel, so a **benign**
//! distributed run converges to the centralized allocation bit-for-bit
//! by construction — one function, not two kept equal by a test. Faults
//! (loss, corruption, delay, duplication, controller crashes) are
//! absorbed by the reliable-delivery layer and epoch catch-up replay;
//! a *partition* degrades the isolated zone to safe mode (last-known-
//! good plan, border cells at 20 MHz) until quorum heals, after which
//! catch-up replay restores twin equality.
//!
//! All randomness — restart schedules, fault draws — is keyed through
//! `mix_seed` streams, so every run is a pure function of its
//! [`PlaneConfig`] at any thread count.
//!
//! [`AcornController::reallocate`]: acorn_core::AcornController::reallocate
//! [`WireError`]: acorn_core::WireError
//! [`allocate`]: acorn_core::allocate

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msg;
pub mod plane;
pub mod zone;

pub use msg::{
    encode_envelope, fingerprint_slice, parse_envelope, CtrlEnvelope, CtrlMsg, CTRL_SUBTYPE,
    CTRL_VERSION, SALT_CTRL,
};
pub use plane::{
    centralized_twin, CrashWindow, DistributedPlane, NetState, PartitionWindow, PlaneConfig,
    PlaneEvent, PlaneReport, PlaneWorld, ZoneReport, CTRL_GAUNTLET,
};
pub use zone::{backoff_for, ZoneController};
