//! Typed error taxonomy for controller inputs.
//!
//! The control plane ingests data that crossed a radio: beacons parsed
//! off the wire, IAPP caches built from lossy announcements, SNR reports
//! from client drivers. None of that is trusted, so malformed inputs must
//! surface as *recoverable* faults — a [`ControlError`] the caller can
//! count, log, and route around — never as a process abort. This module
//! replaces the `assert!`/`unwrap` edges that used to guard
//! [`switch_plans`](crate::csa::switch_plans) and the CSA countdown, and
//! types the tracker's rejection of a non-finite SNR report.

use crate::wire::WireError;

/// A recoverable control-plane fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlError {
    /// Two assignment vectors that must describe the same deployment have
    /// different lengths (e.g. a CSA diff between epochs of different
    /// topologies).
    AssignmentLengthMismatch {
        /// Length of the old assignment vector.
        old: usize,
        /// Length of the new assignment vector.
        new: usize,
    },
    /// A CSA countdown of zero beacons would switch without ever
    /// announcing — clients could never follow.
    ZeroCsaCountdown,
    /// A measurement (SNR report) that is NaN or infinite.
    NonFiniteMeasurement(f64),
    /// A frame failed wire-level validation.
    Wire(WireError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::AssignmentLengthMismatch { old, new } => {
                write!(f, "assignment vectors must align: {old} vs {new} APs")
            }
            ControlError::ZeroCsaCountdown => {
                write!(f, "CSA countdown must be at least 1 beacon")
            }
            ControlError::NonFiniteMeasurement(x) => {
                write!(f, "non-finite measurement {x}")
            }
            ControlError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<WireError> for ControlError {
    fn from(e: WireError) -> ControlError {
        ControlError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ControlError::AssignmentLengthMismatch { old: 3, new: 2 };
        assert!(e.to_string().contains("3 vs 2"));
        let w: ControlError = WireError::Truncated.into();
        assert!(w.to_string().contains("truncated"));
    }
}
