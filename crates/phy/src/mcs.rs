//! The 802.11n HT Modulation and Coding Scheme (MCS) table and MIMO modes.
//!
//! The paper's testbed cards expose MCS 0–15 (one and two spatial streams
//! over a 2×3 antenna configuration) and an auto-rate algorithm that also
//! chooses between the two 802.11n MIMO operating modes: Spatial Division
//! Multiplexing (SDM — higher rate) and Space-Time Block Coding (STBC —
//! higher reliability; the mode the paper observes auto-rate selecting on
//! poor links). This module encodes the rate table and a simple, documented
//! effective-SNR model for the two modes that the rest of the stack uses.

use crate::coding::{coded_ber, per_from_ber_bytes, CodeRate};
use crate::modulation::Modulation;
use crate::ofdm::{ChannelWidth, GuardInterval, OfdmParams};

/// An HT MCS index in `0..=15` (1–2 spatial streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct McsIndex(u8);

impl McsIndex {
    /// Highest index supported by the modelled 2-stream hardware
    /// (the paper runs its channel-flatness test "using the maximum
    /// transmission rate (MCS = 15)").
    pub const MAX: McsIndex = McsIndex(15);

    /// Creates an index, returning `None` outside `0..=15`.
    pub fn new(idx: u8) -> Option<McsIndex> {
        (idx <= 15).then_some(McsIndex(idx))
    }

    /// The raw index value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Iterator over all sixteen indices.
    pub fn all() -> impl Iterator<Item = McsIndex> {
        (0..=15).map(McsIndex)
    }

    /// All sixteen indices in descending nominal rate, equal rates in
    /// ascending index: 15, 14, 13, 12, 7, 6, 5, 11, 4, 10, 3, 9, 2, 1,
    /// 8, 0. Width and guard interval scale every rate alike, so the
    /// order holds for both. The estimator's search stops at the first
    /// index in this order that cannot win, which is exact only because
    /// the order is sorted so.
    pub(crate) fn by_descending_rate() -> impl Iterator<Item = McsIndex> {
        [15, 14, 13, 12, 7, 6, 5, 11, 4, 10, 3, 9, 2, 1, 8, 0]
            .into_iter()
            .map(McsIndex)
    }

    /// Iterator over the single-stream indices 0–7.
    pub fn single_stream() -> impl Iterator<Item = McsIndex> {
        (0..=7).map(McsIndex)
    }

    /// Decodes the index into its full MCS description.
    pub fn mcs(self) -> Mcs {
        let (modulation, code_rate) = match self.0 % 8 {
            0 => (Modulation::Bpsk, CodeRate::R12),
            1 => (Modulation::Qpsk, CodeRate::R12),
            2 => (Modulation::Qpsk, CodeRate::R34),
            3 => (Modulation::Qam16, CodeRate::R12),
            4 => (Modulation::Qam16, CodeRate::R34),
            5 => (Modulation::Qam64, CodeRate::R23),
            6 => (Modulation::Qam64, CodeRate::R34),
            _ => (Modulation::Qam64, CodeRate::R56),
        };
        Mcs {
            index: self,
            modulation,
            code_rate,
            n_ss: 1 + self.0 / 8,
        }
    }
}

/// A fully decoded MCS: modulation, code rate and spatial-stream count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mcs {
    /// The HT index this MCS corresponds to.
    pub index: McsIndex,
    /// Subcarrier modulation.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
    /// Number of spatial streams (1 or 2).
    pub n_ss: u8,
}

impl Mcs {
    /// Nominal PHY rate in bits/s at the given width and guard interval.
    ///
    /// Reproduces the standard table: MCS 0 → 6.5 / 13.5 Mb/s (20/40 MHz,
    /// long GI), MCS 7 → 65 / 135 Mb/s, MCS 15 → 130 / 270 Mb/s.
    pub fn rate_bps(&self, width: ChannelWidth, gi: GuardInterval) -> f64 {
        OfdmParams { width, gi }.nominal_bit_rate(
            self.modulation.bits_per_symbol(),
            self.code_rate.as_f64(),
            self.n_ss as u32,
        )
    }

    /// Post-FEC bit error rate of this MCS at the given *per-stream,
    /// per-subcarrier* SNR (dB). Apply [`MimoMode::effective_snr_db`] first
    /// to account for the MIMO mode in use.
    pub fn coded_ber(&self, stream_snr_db: f64) -> f64 {
        coded_ber(self.code_rate, self.modulation.ber_awgn(stream_snr_db))
    }

    /// Packet error rate for an `packet_bytes`-byte frame at the given
    /// per-stream SNR (paper Eq. 6 on top of the coded BER).
    pub fn per(&self, stream_snr_db: f64, packet_bytes: u32) -> f64 {
        per_from_ber_bytes(self.coded_ber(stream_snr_db), packet_bytes)
    }
}

/// 802.11n MIMO operating modes for a 2×2-capable link.
///
/// The paper (§2, §3.2): "Two modes of operations are feasible with 802.11n:
/// (i) Spatial Division Multiplexing (SDM), which achieves higher data rates
/// and (ii) Space Time Block Coding (STBC), which achieves higher
/// reliability. Typically, vendors implement rate adaptation algorithms ...
/// which choose the mode of MIMO operations based on the link quality."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MimoMode {
    /// Alamouti space-time block coding over two transmit antennas: one
    /// spatial stream with transmit-diversity gain. Valid for MCS 0–7.
    Stbc,
    /// Spatial-division multiplexing: two independent streams (MCS 8–15),
    /// each carrying half the transmit power.
    Sdm,
}

impl MimoMode {
    /// Effective SNR gain of 2×2 Alamouti STBC relative to a single-antenna
    /// link, in dB. Combining two independently faded copies yields array
    /// plus diversity gain; +4 dB is a conservative flat-channel figure
    /// (3 dB array gain from the second receive chain plus a modest
    /// diversity margin). Documented in DESIGN.md as a modelling choice.
    pub const STBC_GAIN_DB: f64 = 4.0;

    /// Per-stream SNR penalty of SDM, in dB: transmit power is split across
    /// the two streams (−3 dB each), and we charge no further loss for
    /// stream separation (ideal MMSE receiver on a well-conditioned
    /// channel).
    pub const SDM_STREAM_PENALTY_DB: f64 = 3.0103;

    /// Maps a link's (single-antenna-equivalent) SNR to the per-stream SNR
    /// seen by each decoded stream in this mode.
    pub fn effective_snr_db(self, link_snr_db: f64) -> f64 {
        match self {
            MimoMode::Stbc => link_snr_db + Self::STBC_GAIN_DB,
            MimoMode::Sdm => link_snr_db - Self::SDM_STREAM_PENALTY_DB,
        }
    }

    /// Whether this mode can carry the given MCS (STBC is single-stream,
    /// SDM is dual-stream).
    pub fn supports(self, mcs: Mcs) -> bool {
        match self {
            MimoMode::Stbc => mcs.n_ss == 1,
            MimoMode::Sdm => mcs.n_ss == 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_mbps(idx: u8, w: ChannelWidth) -> f64 {
        McsIndex::new(idx)
            .unwrap()
            .mcs()
            .rate_bps(w, GuardInterval::Long)
            / 1e6
    }

    #[test]
    fn standard_rate_table_ht20_long_gi() {
        let expected = [6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0];
        for (i, exp) in expected.iter().enumerate() {
            assert!(
                (rate_mbps(i as u8, ChannelWidth::Ht20) - exp).abs() < 0.01,
                "MCS {i}"
            );
        }
    }

    #[test]
    fn standard_rate_table_ht40_long_gi() {
        let expected = [13.5, 27.0, 40.5, 54.0, 81.0, 108.0, 121.5, 135.0];
        for (i, exp) in expected.iter().enumerate() {
            assert!(
                (rate_mbps(i as u8, ChannelWidth::Ht40) - exp).abs() < 0.01,
                "MCS {i}"
            );
        }
    }

    #[test]
    fn two_stream_rates_double_single_stream() {
        for i in 0..8u8 {
            for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                assert!((rate_mbps(i + 8, w) - 2.0 * rate_mbps(i, w)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mcs15_is_130_and_270_mbps() {
        assert!((rate_mbps(15, ChannelWidth::Ht20) - 130.0).abs() < 0.01);
        assert!((rate_mbps(15, ChannelWidth::Ht40) - 270.0).abs() < 0.01);
    }

    #[test]
    fn index_bounds() {
        assert!(McsIndex::new(16).is_none());
        assert!(McsIndex::new(15).is_some());
        assert_eq!(McsIndex::all().count(), 16);
        assert_eq!(McsIndex::single_stream().count(), 8);
    }

    #[test]
    fn descending_rate_order_is_a_sorted_permutation() {
        let order: Vec<McsIndex> = McsIndex::by_descending_rate().collect();
        assert_eq!(order[0], McsIndex::MAX);
        let mut sorted = order.clone();
        sorted.sort();
        assert!(sorted.into_iter().eq(McsIndex::all()));
        for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            for gi in [GuardInterval::Long, GuardInterval::Short] {
                let rate = |i: McsIndex| i.mcs().rate_bps(w, gi);
                for pair in order.windows(2) {
                    let (a, b) = (rate(pair[0]), rate(pair[1]));
                    assert!(
                        a > b || (a == b && pair[0] < pair[1]),
                        "{pair:?} {w:?} {gi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_counts() {
        assert_eq!(McsIndex::new(7).unwrap().mcs().n_ss, 1);
        assert_eq!(McsIndex::new(8).unwrap().mcs().n_ss, 2);
    }

    #[test]
    fn per_decreases_with_snr() {
        let mcs = McsIndex::new(4).unwrap().mcs();
        let mut prev = 1.0;
        for snr in [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0] {
            let per = mcs.per(snr, 1500);
            assert!(per <= prev + 1e-12);
            prev = per;
        }
    }

    #[test]
    fn aggressive_mcs_needs_more_snr() {
        // At a middling SNR, MCS 7 should have a much higher PER than MCS 0.
        let snr = 12.0;
        let per0 = McsIndex::new(0).unwrap().mcs().per(snr, 1500);
        let per7 = McsIndex::new(7).unwrap().mcs().per(snr, 1500);
        assert!(per7 > per0, "per0={per0}, per7={per7}");
    }

    #[test]
    fn mode_support() {
        let m0 = McsIndex::new(0).unwrap().mcs();
        let m8 = McsIndex::new(8).unwrap().mcs();
        assert!(MimoMode::Stbc.supports(m0) && !MimoMode::Stbc.supports(m8));
        assert!(MimoMode::Sdm.supports(m8) && !MimoMode::Sdm.supports(m0));
    }

    #[test]
    fn stbc_helps_and_sdm_costs_snr() {
        assert!(MimoMode::Stbc.effective_snr_db(10.0) > 10.0);
        assert!(MimoMode::Sdm.effective_snr_db(10.0) < 10.0);
    }

    #[test]
    fn mode_crossover_exists() {
        // On a strong link, SDM at MCS 15 outpaces STBC at MCS 7; on a weak
        // link the reverse holds — the mechanism behind the paper's
        // observation that auto-rate uses STBC on poor links.
        let goodput = |mode: MimoMode, idx: u8, snr: f64| {
            let mcs = McsIndex::new(idx).unwrap().mcs();
            let eff = mode.effective_snr_db(snr);
            (1.0 - mcs.per(eff, 1500)) * mcs.rate_bps(ChannelWidth::Ht20, GuardInterval::Long)
        };
        assert!(goodput(MimoMode::Sdm, 15, 35.0) > goodput(MimoMode::Stbc, 7, 35.0));
        assert!(goodput(MimoMode::Stbc, 0, 2.0) > goodput(MimoMode::Sdm, 8, 2.0));
    }
}
