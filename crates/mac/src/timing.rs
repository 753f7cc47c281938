//! 802.11n MAC timing constants and per-packet cycle accounting.
//!
//! These timings turn nominal PHY rates into realistic MAC-layer goodputs.
//! They matter for reproducing the paper's absolute throughput ranges
//! (Fig. 6a tops out near 70–80 Mb/s for UDP over a 130 Mb/s-class PHY —
//! roughly the MAC efficiency these constants produce).

/// One backoff slot (5 GHz OFDM PHY): 9 µs.
pub const SLOT_S: f64 = 9e-6;
/// Short interframe space: 16 µs.
pub const SIFS_S: f64 = 16e-6;
/// DCF interframe space: SIFS + 2 slots = 34 µs.
pub const DIFS_S: f64 = SIFS_S + 2.0 * SLOT_S;
/// PLCP preamble + header for an HT mixed-format frame: ≈ 36 µs.
pub const PHY_HEADER_S: f64 = 36e-6;
/// ACK transmission time (legacy rate), ≈ 32 µs including its preamble.
pub const ACK_S: f64 = 32e-6;
/// Minimum contention window (CWmin = 15 slots).
pub const CW_MIN: u32 = 15;
/// Maximum contention window (CWmax = 1023 slots).
pub const CW_MAX: u32 = 1023;
/// MAC retry limit before a frame is dropped.
pub const RETRY_LIMIT: u32 = 7;
/// MAC + LLC header overhead per frame, bytes.
pub const MAC_HEADER_BYTES: u32 = 36;
/// A-MPDU burst size: MPDUs aggregated into one TXOP under a single PHY
/// header and BlockAck. 802.11n cards of the paper's era aggregate a
/// handful of frames; 4 reproduces the paper's observed CB gains (up to
/// ~1.9× at high SNR — without aggregation, fixed per-access overhead
/// would cap the gain near 1.2×, which the testbed does not show).
pub const BURST: u32 = 4;

/// Time on air of one data MPDU of `payload_bytes` at PHY rate `rate_bps`,
/// excluding the PHY preamble: (MAC header + payload) / rate.
pub fn mpdu_time_s(payload_bytes: u32, rate_bps: f64) -> f64 {
    assert!(rate_bps > 0.0, "rate must be positive");
    8.0 * (payload_bytes + MAC_HEADER_BYTES) as f64 / rate_bps
}

/// Time on air of a single (non-aggregated) data frame: PLCP preamble +
/// one MPDU.
pub fn tx_time_s(payload_bytes: u32, rate_bps: f64) -> f64 {
    PHY_HEADER_S + mpdu_time_s(payload_bytes, rate_bps)
}

/// Duration of one TXOP carrying `burst` aggregated MPDUs:
/// PLCP + burst·MPDU + SIFS + BlockAck.
pub fn txop_time_s(payload_bytes: u32, rate_bps: f64, burst: u32) -> f64 {
    assert!(burst >= 1, "burst must be at least 1");
    PHY_HEADER_S + burst as f64 * mpdu_time_s(payload_bytes, rate_bps) + SIFS_S + ACK_S
}

/// Expected duration of one contention-free channel access (TXOP):
/// DIFS + mean initial backoff + the TXOP itself.
pub fn access_cycle_s(payload_bytes: u32, rate_bps: f64, burst: u32) -> f64 {
    let mean_backoff = CW_MIN as f64 / 2.0 * SLOT_S;
    DIFS_S + mean_backoff + txop_time_s(payload_bytes, rate_bps, burst)
}

/// Expected channel time consumed per *delivered* packet on a link with
/// packet error rate `per`, under [`BURST`]-aggregated access: each TXOP
/// delivers `burst·(1−per)` packets in expectation (lost subframes are
/// re-sent in later TXOPs). This is the per-client "transmission delay"
/// `d_cl` that ACORN's modified beacons advertise.
///
/// Returns `f64::INFINITY` when `per ≥ 1` (the link delivers nothing).
pub fn delivery_delay_s(payload_bytes: u32, rate_bps: f64, per: f64) -> f64 {
    let p_ok = 1.0 - per.clamp(0.0, 1.0);
    if p_ok <= 0.0 {
        return f64::INFINITY;
    }
    access_cycle_s(payload_bytes, rate_bps, BURST) / (BURST as f64 * p_ok)
}

/// Isolated (single-client, contention-free) goodput in bits/s:
/// `payload / delivery_delay`.
pub fn isolated_goodput_bps(payload_bytes: u32, rate_bps: f64, per: f64) -> f64 {
    let d = delivery_delay_s(payload_bytes, rate_bps, per);
    if d.is_infinite() {
        0.0
    } else {
        8.0 * payload_bytes as f64 / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difs_value() {
        assert!((DIFS_S - 34e-6).abs() < 1e-12);
    }

    #[test]
    fn tx_time_scales_with_payload_and_rate() {
        let t1 = tx_time_s(1500, 65e6);
        let t2 = tx_time_s(3000, 65e6);
        let t3 = tx_time_s(1500, 130e6);
        assert!(t2 > t1);
        assert!(t3 < t1);
        // 1500 B at 65 Mb/s: 36 µs + 12288/65e6 ≈ 225 µs.
        assert!((t1 - 225e-6).abs() < 5e-6, "t1 = {t1}");
    }

    #[test]
    fn mac_efficiency_is_realistic() {
        // At MCS 7 (65 Mb/s) with 4-MPDU aggregation, UDP goodput should
        // land around 60–80 % of the PHY rate.
        let g = isolated_goodput_bps(1500, 65e6, 0.0);
        let eff = g / 65e6;
        assert!(eff > 0.55 && eff < 0.85, "efficiency {eff}");
    }

    #[test]
    fn cb_gain_on_a_clean_link_is_large_but_below_two() {
        // The paper's Fig. 6a headline: even a perfect link gains less
        // than 2× from CB at the application layer.
        let g20 = isolated_goodput_bps(1500, 130e6, 0.0);
        let g40 = isolated_goodput_bps(1500, 270e6, 0.0);
        let ratio = g40 / g20;
        assert!(ratio > 1.4 && ratio < 2.0, "CB gain {ratio}");
    }

    #[test]
    fn aggregation_amortizes_overhead() {
        let single = access_cycle_s(1500, 65e6, 1);
        let burst4 = access_cycle_s(1500, 65e6, 4);
        // Four MPDUs cost far less than four single accesses.
        assert!(
            burst4 < 4.0 * single * 0.75,
            "burst {burst4}, single {single}"
        );
    }

    #[test]
    fn higher_phy_rates_have_lower_efficiency() {
        // Fixed per-frame overhead bites harder at higher rates — one
        // reason CB "never doubles" application throughput.
        let e65 = isolated_goodput_bps(1500, 65e6, 0.0) / 65e6;
        let e135 = isolated_goodput_bps(1500, 135e6, 0.0) / 135e6;
        assert!(e135 < e65);
    }

    #[test]
    fn per_inflates_delay_geometrically() {
        let clean = delivery_delay_s(1500, 65e6, 0.0);
        let half = delivery_delay_s(1500, 65e6, 0.5);
        assert!((half / clean - 2.0).abs() < 1e-9);
        assert_eq!(delivery_delay_s(1500, 65e6, 1.0), f64::INFINITY);
    }

    #[test]
    fn dead_link_has_zero_goodput() {
        assert_eq!(isolated_goodput_bps(1500, 65e6, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        tx_time_s(1500, 0.0);
    }
}
