//! # acorn — reproduction of "Auto-configuration of 802.11n WLANs" (CoNEXT 2010)
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`phy`] | analytic 802.11n PHY (OFDM, MCS, noise, BER/PER, σ, estimator) |
//! | [`baseband`] | software OFDM/MIMO baseband — the WARP-board substitute |
//! | [`topology`] | geometry, path loss, 5 GHz channel plan, interference graph |
//! | [`mac`] | DCF airtime/anomaly model, contention, rate control, DCF simulator |
//! | [`traces`] | association-duration traces, ECDF, arrival workloads |
//! | [`core`] | ACORN itself: Algorithms 1 & 2, estimator, controller, theory |
//! | [`dcb`] | per-transmission dynamic bonding: policies, CTMC check, exact optimum |
//! | [`obs`] | observability: metric sinks, spans, deterministic telemetry |
//! | [`events`] | deterministic discrete-event runtime + telemetry recorder |
//! | [`ctrlplane`] | distributed zone-controller control plane over [`events`] |
//! | [`baselines`] | \[17\]-style greedy CB, RSSI, random/fixed configs, optimal |
//! | [`sim`] | scenarios, traffic models, statistics, mobility, eval runner |
//! | [`soak`] | chaos soak: streaming workloads, sketch telemetry, watchdogs |
//!
//! ## Quickstart
//!
//! ```
//! use acorn::core::{AcornConfig, AcornController, NullSink};
//! use acorn::topology::ClientId;
//!
//! // A 2×2 enterprise floor with 8 clients.
//! let wlan = acorn::sim::enterprise_grid(2, 2, 50.0, 8, 42);
//! let ctl = AcornController::new(AcornConfig::default());
//! let mut state = ctl.new_state(&wlan, 42);
//! for c in 0..wlan.clients.len() {
//!     ctl.associate(&wlan, &mut state, ClientId(c), &NullSink);
//! }
//! // Algorithm 2 over the whole network, hedged with 8 random restarts.
//! let model = ctl.build_model(&wlan, &state);
//! let result = ctl.reallocate(&model, &mut state, 8, 7, false, &NullSink);
//! assert!(result.total_bps > 0.0);
//! ```

pub mod calibration;

pub use acorn_baseband as baseband;
pub use acorn_baselines as baselines;
pub use acorn_core as core;
pub use acorn_ctrlplane as ctrlplane;
pub use acorn_dcb as dcb;
pub use acorn_events as events;
pub use acorn_mac as mac;
pub use acorn_obs as obs;
pub use acorn_phy as phy;
pub use acorn_sim as sim;
pub use acorn_soak as soak;
pub use acorn_topology as topology;
pub use acorn_traces as traces;
