//! Long-term DCF airtime model: the 802.11 performance anomaly and the
//! cell-throughput arithmetic ACORN's beacons advertise.
//!
//! §4's analysis rests on the Heusse et al. performance anomaly \[4\]: "the
//! distributed coordination function (DCF) used with 802.11 ensures equal
//! long term medium access opportunities. Since poor clients occupy the
//! channel for longer periods, the good clients are hurt."
//!
//! With saturated downlink traffic and per-packet round-robin access, the
//! channel time to deliver one packet to every client is the *aggregate
//! transmission delay* `ATD = Σ_i d_i` (with `d_i` from
//! [`crate::timing::delivery_delay_s`]). Every client then receives
//!
//! ```text
//! X = M · L / ATD        (bits/s, identical for all clients — the anomaly)
//! ```
//!
//! where `M ∈ (0, 1]` is the AP's channel-access share under contention
//! and `L` the payload size in bits. This is exactly the `X_{w,u} =
//! M_i / ATD_i` bookkeeping of §4.1, with the payload made explicit.

use crate::timing::delivery_delay_s;

/// One client's link operating point as the MAC sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientLink {
    /// Selected PHY rate (bits/s).
    pub rate_bps: f64,
    /// Packet error rate at that rate.
    pub per: f64,
}

/// Per-cell airtime accounting for a set of associated clients.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAirtime {
    /// Per-client delivery delays `d_i` (seconds per delivered packet).
    pub delays_s: Vec<f64>,
    /// Payload size in bytes used for the accounting.
    pub payload_bytes: u32,
}

impl CellAirtime {
    /// Computes the delay vector for a cell's clients at a payload size.
    pub fn new(clients: &[ClientLink], payload_bytes: u32) -> CellAirtime {
        CellAirtime {
            delays_s: clients
                .iter()
                .map(|c| delivery_delay_s(payload_bytes, c.rate_bps, c.per))
                .collect(),
            payload_bytes,
        }
    }

    /// The aggregate transmission delay `ATD = Σ d_i` (seconds).
    pub fn atd_s(&self) -> f64 {
        self.delays_s.iter().sum()
    }

    /// Number of associated clients `K`.
    pub fn n_clients(&self) -> usize {
        self.delays_s.len()
    }

    /// Per-client long-term throughput (bits/s) at channel-access share
    /// `m`: `X = m·L/ATD`. Zero for an empty cell; zero if any delay is
    /// infinite (a completely dead link stalls round-robin service — the
    /// extreme form of the anomaly).
    pub fn per_client_throughput_bps(&self, m: f64) -> f64 {
        per_client_bps(self.n_clients(), self.atd_s(), self.payload_bytes, m)
    }

    /// Aggregate cell throughput `K·X` (bits/s).
    pub fn cell_throughput_bps(&self, m: f64) -> f64 {
        cell_throughput_from_atd_bps(self.n_clients(), self.atd_s(), self.payload_bytes, m)
    }

    /// Per-client throughput if client `u` were removed — the
    /// `X_{wo,u} = M/(ATD − d_u)` term of Algorithm 1.
    pub fn per_client_throughput_without_bps(&self, m: f64, u: usize) -> f64 {
        let rest = self.atd_s() - self.delays_s[u];
        if !rest.is_finite() || rest <= 0.0 {
            return 0.0;
        }
        m.clamp(0.0, 1.0) * 8.0 * self.payload_bytes as f64 / rest
    }
}

/// `X = m·L/ATD` for a cell of `n_clients` whose delays sum to `atd_s`.
fn per_client_bps(n_clients: usize, atd_s: f64, payload_bytes: u32, m: f64) -> f64 {
    if n_clients == 0 || !atd_s.is_finite() || atd_s <= 0.0 {
        return 0.0;
    }
    m.clamp(0.0, 1.0) * 8.0 * payload_bytes as f64 / atd_s
}

/// [`CellAirtime::cell_throughput_bps`] from the cell's client count and
/// ATD alone, bit for bit: what a cell whose ATD is kept current delivers
/// at access share `m`, without its delay vector.
pub fn cell_throughput_from_atd_bps(
    n_clients: usize,
    atd_s: f64,
    payload_bytes: u32,
    m: f64,
) -> f64 {
    n_clients as f64 * per_client_bps(n_clients, atd_s, payload_bytes, m)
}

/// Convenience: aggregate throughput of a cell given client links, payload
/// and access share.
pub fn cell_throughput_bps(clients: &[ClientLink], payload_bytes: u32, m: f64) -> f64 {
    CellAirtime::new(clients, payload_bytes).cell_throughput_bps(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::isolated_goodput_bps;

    #[test]
    fn single_clean_client_matches_isolated_goodput() {
        let cell = CellAirtime::new(
            &[ClientLink {
                rate_bps: 65e6,
                per: 0.0,
            }],
            1500,
        );
        let x = cell.cell_throughput_bps(1.0);
        assert!((x - isolated_goodput_bps(1500, 65e6, 0.0)).abs() < 1.0);
    }

    #[test]
    fn anomaly_equalizes_per_client_throughput() {
        // A fast and a slow client: both get the *same* throughput, pulled
        // down by the slow one — Heusse et al.'s result.
        let fast = ClientLink {
            rate_bps: 130e6,
            per: 0.0,
        };
        let slow = ClientLink {
            rate_bps: 6.5e6,
            per: 0.0,
        };
        let mixed = CellAirtime::new(&[fast, slow], 1500);
        let x_mixed = mixed.per_client_throughput_bps(1.0);
        let fast_alone = CellAirtime::new(&[fast], 1500).per_client_throughput_bps(1.0);
        // The fast client suffers drastically compared to being alone.
        assert!(
            x_mixed < 0.2 * fast_alone,
            "mixed {x_mixed}, alone {fast_alone}"
        );
        // And the aggregate is dominated by the slow link's airtime.
        let slow_alone = CellAirtime::new(&[slow], 1500).cell_throughput_bps(1.0);
        assert!(mixed.cell_throughput_bps(1.0) < 2.0 * slow_alone);
    }

    #[test]
    fn grouping_similar_clients_preserves_aggregate() {
        // The §5.2 Topology-2 observation: adding same-quality clients to
        // a cell does not change its aggregate throughput (per-client
        // throughput drops 1/K but K grows).
        let c = ClientLink {
            rate_bps: 58.5e6,
            per: 0.02,
        };
        let one = cell_throughput_bps(&[c], 1500, 1.0);
        let four = cell_throughput_bps(&[c; 4], 1500, 1.0);
        assert!((one - four).abs() / one < 1e-9);
    }

    #[test]
    fn access_share_scales_linearly() {
        let c = ClientLink {
            rate_bps: 65e6,
            per: 0.0,
        };
        let full = cell_throughput_bps(&[c], 1500, 1.0);
        let third = cell_throughput_bps(&[c], 1500, 1.0 / 3.0);
        assert!((third * 3.0 - full).abs() < 1.0);
    }

    #[test]
    fn without_term_matches_smaller_cell() {
        let a = ClientLink {
            rate_bps: 65e6,
            per: 0.1,
        };
        let b = ClientLink {
            rate_bps: 13e6,
            per: 0.3,
        };
        let both = CellAirtime::new(&[a, b], 1500);
        let only_a = CellAirtime::new(&[a], 1500);
        assert!(
            (both.per_client_throughput_without_bps(1.0, 1)
                - only_a.per_client_throughput_bps(1.0))
            .abs()
                < 1.0
        );
    }

    #[test]
    fn empty_cell_and_dead_links() {
        let empty = CellAirtime::new(&[], 1500);
        assert_eq!(empty.cell_throughput_bps(1.0), 0.0);
        let dead = CellAirtime::new(
            &[ClientLink {
                rate_bps: 65e6,
                per: 1.0,
            }],
            1500,
        );
        assert_eq!(dead.cell_throughput_bps(1.0), 0.0);
    }

    #[test]
    fn m_is_clamped() {
        let c = ClientLink {
            rate_bps: 65e6,
            per: 0.0,
        };
        let cell = CellAirtime::new(&[c], 1500);
        assert_eq!(
            cell.per_client_throughput_bps(2.0),
            cell.per_client_throughput_bps(1.0)
        );
        assert_eq!(cell.per_client_throughput_bps(-1.0), 0.0);
    }
}
