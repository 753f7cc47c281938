//! # acorn-dcb — dynamic channel bonding beyond the epoch-static plan
//!
//! ACORN (the source paper's Algorithm 2) decides bonding **per epoch**:
//! the allocator hands every AP a 20 or 40 MHz assignment and the cell
//! transmits at that width until the next reallocation. The related work
//! goes further, and this crate reproduces its three pieces:
//! per-transmission bonding, an exactly solved CTMC to cross-check it,
//! and an exact optimal allocator to measure the greedy's gap against:
//!
//! 1. **Per-transmission DCB policies** ([`DcbPolicy`]): at every
//!    transmission opportunity the AP re-decides its width from what it
//!    observes on its primary/secondary channels, within the ceiling the
//!    epoch plan allocated. The policy families follow Barrachina-Muñoz
//!    et al. (arXiv:1803.09112, 1801.00594): static-primary (never
//!    bond), always-max (bond whenever the secondary is clear),
//!    probabilistic (bond with probability `p` when possible), and
//!    occupancy-aware (bond only while the observed secondary occupancy
//!    stays under a threshold).
//! 2. **An exact CTMC throughput model** ([`ctmc`]): Faridi et al.
//!    (arXiv:1509.00290) model overlapping bonded WLANs as a
//!    continuous-time Markov chain over per-WLAN `{idle, tx@20, tx@40}`
//!    states. Solved exactly (dense π·Q = 0), it is an *independent*
//!    cross-check of the event simulator — the same role PR 2's
//!    calibration module played for the baseband — and `tests/dcb.rs`
//!    CI-gates the simulator against it within a documented tolerance.
//! 3. **An exact optimal allocator** ([`exact`]): Kai et al.
//!    (arXiv:1703.03909) compute optimal bonding allocations; here a
//!    branch-and-bound search over the full colour space plays that role
//!    on topologies small enough to enumerate, turning "greedy looks
//!    good" into a *measured* approximation gap (`BENCH_dcb.json`).
//!
//! The policies are pure decision rules over observations — the event
//! runtime (`acorn-events::dcb`) owns clocks, carrier sensing, and
//! occupancy estimation, and feeds policies only through
//! [`OccupancyObservation`], which keeps every policy trivially
//! deterministic and NaN-safe (see the legality proptests at the bottom
//! of `policy.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctmc;
pub mod exact;
pub mod policy;

pub use ctmc::{CtmcError, CtmcParams, CtmcSolution, MarkovPolicy};
pub use exact::{allocate_exact, greedy_vs_exact_gap, ExactConfig, ExactResult};
pub use policy::{
    AlwaysMax, DcbPolicy, OccupancyAware, OccupancyObservation, PolicyKind, Probabilistic,
    StaticPrimary,
};
