//! # acorn-baselines — the comparison schemes ACORN is evaluated against
//!
//! * [`kauffmann`] — "\[17\]" (Kauffmann et al.) as modified by the paper:
//!   selfish delay-based association plus greedy *aggressive* 40 MHz
//!   channel selection minimizing noise+interference. CB-agnostic by
//!   design — the paper's main head-to-head.
//! * [`simple`] — RSSI association, Table 3's random manual
//!   configurations, and fixed all-20/all-40 plans.
//! * [`optimal`] — exhaustive joint channel search for small instances
//!   (the Fig. 14 reference point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kauffmann;
pub mod optimal;
pub mod simple;

pub use kauffmann::allocate_aggressive_cb;
pub use optimal::{optimal_allocation, OptimalResult};
pub use simple::{associate_rssi, fixed_width, random_config, RandomConfig};
