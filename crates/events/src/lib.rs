//! # acorn-events — deterministic discrete-event runtime
//!
//! The simulation kernel the ACORN evaluation scenarios run on: a
//! virtual clock, a binary-heap event queue under a **total**
//! `(time_bits, seq)` ordering, cancellable timers, pluggable
//! [`Process`] actors, and a first-class [`Telemetry`] recorder
//! (counters, gauges, time-series, histograms) with JSON snapshot
//! export.
//!
//! ## Why a kernel
//!
//! The fixed-step and sort-a-vec time loops the simulations grew up with
//! had two structural problems this crate removes at the type level:
//!
//! 1. **Partial orderings.** Sorting event vectors by an unwrapped
//!    `f64::partial_cmp` panics on NaN and, worse, leaves
//!    same-timestamp ordering to the sort's whims. The
//!    [`EventQueue`] validates times once at scheduling and orders by
//!    `(f64::to_bits(t), seq)` — total, NaN-free, and stable: ties fire
//!    in scheduling order, always.
//! 2. **Closed worlds.** A hand-rolled loop hard-codes its event kinds;
//!    composing churn *and* mobility *and* environmental drift meant a
//!    new loop. Here each mechanism is a [`Process`] over a shared
//!    world, and scenarios are compositions ([`CompositeScenario`]).
//!
//! Determinism is the load-bearing property: a run is a pure function of
//! the world and the processes added to it. Randomized actors derive
//! per-event seeds from the event's globally unique sequence number
//! ([`mix_seed`]), and epoch-level fan-out (re-allocation restarts) rides
//! the evaluation engine's order-stable thread pool — so every output
//! bit is identical at any `ACORN_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acorn;
pub mod city;
pub mod cityfaults;
pub mod dcb;
pub mod faults;
pub mod queue;
pub mod sim;
pub mod telemetry;
pub mod world;

pub use acorn::{AcornWorld, CompositeReport, CompositeScenario, Exact, MobilitySpec};
pub use city::{
    CityDriftProcess, CityReallocationTimer, CityReport, CityScenario, CitySessionProcess,
    CityWorld, Incremental,
};
pub use cityfaults::CityFaultProcess;
pub use dcb::{DcbDriver, DcbEvent, DcbReport, DcbScenario, DcbWorld, OverlappingBssGrid};
pub use faults::{
    corrupt_frame, run_with_golden_twin, FaultPlan, FaultProcess, FaultRng, GauntletCounters,
    ResilienceReport, FAULT_GAUNTLET,
};
pub use queue::{EventId, EventQueue, Fired};
pub use sim::{
    mix_seed, Ctx, Envelope, EventLog, LogEntry, Process, ProcessId, RunStats, Simulation,
};
pub use telemetry::{Histogram, Series, Telemetry, TelemetrySnapshot};
pub use world::{
    AcornEvent, DriftProcess, DriftSpec, Locality, MobilityProcess, ReallocRecord,
    ReallocationTimer, ScenarioReport, SeedPolicy, SessionProcess, World,
};
