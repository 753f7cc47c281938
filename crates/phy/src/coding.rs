//! Forward error correction modelling: coded BER and PER.
//!
//! 802.11n uses the industry-standard K=7 convolutional code (generators
//! 133/171 octal) with puncturing to rates 2/3, 3/4 and 5/6. To predict the
//! *coded* link behaviour that the paper's testbed cards exhibit (Fig. 5,
//! Table 1), we use the classic union upper bound on the post-Viterbi bit
//! error rate with hard-decision decoding:
//!
//! ```text
//! Pb ≤ Σ_{d ≥ dfree} c_d · P2(d)
//! ```
//!
//! where `c_d` are the information-bit weights of the code's distance
//! spectrum and `P2(d)` is the probability of selecting an incorrect path at
//! Hamming distance `d` on a BSC with crossover probability equal to the
//! uncoded (channel) BER. The distance spectra below are the standard
//! published values (Haccoun & Bégin 1989; used by virtually every 802.11
//! PER model in the literature, e.g. the one the paper cites through \[19\]).
//!
//! PER then follows the paper's Eq. 6 under the independent-bit-error
//! assumption: `PER = 1 − (1 − BER)^L` with `L` the packet length in bits.

use std::sync::OnceLock;

/// Convolutional code rates available in 802.11n (after puncturing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// Rate 1/2 — the mother code.
    R12,
    /// Rate 2/3 (punctured).
    R23,
    /// Rate 3/4 (punctured).
    R34,
    /// Rate 5/6 (punctured).
    R56,
}

impl CodeRate {
    /// All rates, most to least redundant.
    pub const ALL: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

    /// The numeric code rate `k/n`.
    pub fn as_f64(self) -> f64 {
        match self {
            CodeRate::R12 => 1.0 / 2.0,
            CodeRate::R23 => 2.0 / 3.0,
            CodeRate::R34 => 3.0 / 4.0,
            CodeRate::R56 => 5.0 / 6.0,
        }
    }

    /// Free distance of the (punctured) code.
    pub fn free_distance(self) -> u32 {
        match self {
            CodeRate::R12 => 10,
            CodeRate::R23 => 6,
            CodeRate::R34 => 5,
            CodeRate::R56 => 4,
        }
    }

    /// Information-bit weights `c_d` of the distance spectrum, starting at
    /// `d = free_distance()` and increasing by one per entry.
    ///
    /// Zeros appear where the code has no codewords of that weight (the
    /// rate-1/2 mother code only has even-weight codewords).
    pub fn distance_spectrum(self) -> &'static [f64] {
        match self {
            CodeRate::R12 => &[
                36.0, 0.0, 211.0, 0.0, 1404.0, 0.0, 11633.0, 0.0, 77433.0, 0.0, 502690.0,
            ],
            CodeRate::R23 => &[3.0, 70.0, 285.0, 1276.0, 6160.0, 27128.0, 117019.0],
            CodeRate::R34 => &[42.0, 201.0, 1492.0, 10469.0, 62935.0, 379644.0, 2253373.0],
            CodeRate::R56 => &[92.0, 528.0, 8694.0, 79453.0, 792114.0, 7375573.0],
        }
    }
}

/// The largest Hamming distance any [`CodeRate::distance_spectrum`]
/// reaches (rate 1/2: `d_free = 10` plus ten more entries).
const MAX_DISTANCE: usize = 20;

/// `ln n!` for `0 ≤ n ≤ MAX_DISTANCE`, each entry the same left-to-right
/// fold of `ln i` the series has always used, so every binomial
/// coefficient below keeps its bits.
fn ln_factorials() -> &'static [f64; MAX_DISTANCE + 1] {
    static TABLE: OnceLock<[f64; MAX_DISTANCE + 1]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|n| (1..=n).map(|i| (i as f64).ln()).sum()))
}

/// Probability of a pairwise error event at Hamming distance `d` on a binary
/// symmetric channel with crossover probability `p ∈ (0, ½)`, given
/// `lp = ln p` and `lq = ln(1 − p)` (hard-decision Viterbi).
///
/// For odd `d`: `P2 = Σ_{k=(d+1)/2}^{d} C(d,k) p^k (1−p)^{d−k}`.
/// For even `d` the tie term `½·C(d,d/2) p^{d/2}(1−p)^{d/2}` is added.
fn pairwise_error_probability(d: usize, lp: f64, lq: f64) -> f64 {
    let lf = ln_factorials();
    // binomial term C(d,k) p^k (1-p)^(d-k), computed in log space to avoid
    // overflow for larger d.
    let term = |k: usize| {
        let ln_c = lf[d] - lf[k] - lf[d - k];
        (ln_c + k as f64 * lp + (d - k) as f64 * lq).exp()
    };
    // Every term is non-negative, so the sum never falls back below the
    // clamp once it reaches it.
    let mut sum = 0.0;
    for k in d / 2 + 1..=d {
        sum += term(k);
        if sum >= 0.5 {
            return 0.5;
        }
    }
    if d.is_multiple_of(2) {
        sum += 0.5 * term(d / 2);
    }
    sum.min(0.5)
}

/// Post-Viterbi (coded) bit error rate given the uncoded channel BER.
///
/// Union upper bound over the first terms of the distance spectrum,
/// clamped to `[0, 0.5]`. Near `channel_ber = 0.5` the bound saturates at
/// 0.5 (the decoder can do no worse than guessing on average). This is
/// [`Crossover::coded_ber`] of [`Crossover::new`]`(channel_ber)`;
/// [`coded_ber_reference`] is the same bound written term by term, and
/// the two agree bit for bit.
pub fn coded_ber(rate: CodeRate, channel_ber: f64) -> f64 {
    Crossover::new(channel_ber).coded_ber(rate)
}

/// The binary symmetric channel the Viterbi decoder sees: its crossover
/// probability `p` (the uncoded channel BER, at most ½) with `ln p` and
/// `ln(1 − p)` taken once. Everything the union bound needs from the
/// channel is here, so MCSs that share a channel BER (one modulation at
/// one effective SNR) share one `Crossover` across their code rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossover {
    /// `min(channel_ber, 0.5)`; at most 0 means an error-free channel.
    p: f64,
    /// `ln p` (unused when `p ≤ 0`).
    lp: f64,
    /// `ln(1 − p)` (unused when `p ≤ 0`).
    lq: f64,
}

impl Crossover {
    /// The channel at uncoded bit error rate `channel_ber`: values at or
    /// below 0 are error-free, values above ½ (and NaN) count as ½.
    pub fn new(channel_ber: f64) -> Crossover {
        let p = channel_ber.min(0.5);
        let (lp, lq) = if p > 0.0 {
            (p.ln(), (1.0 - p).ln())
        } else {
            (0.0, 0.0)
        };
        Crossover { p, lp, lq }
    }

    /// The union bound of [`coded_ber`] for one code rate on this
    /// channel: the `ln n!` come from a table, and the bound returns 0.5
    /// as soon as its running sum reaches the clamp.
    pub fn coded_ber(&self, rate: CodeRate) -> f64 {
        let Crossover { p, lp, lq } = *self;
        if p <= 0.0 {
            return 0.0;
        }
        let dfree = rate.free_distance() as usize;
        let mut pb = 0.0;
        for (i, &cd) in rate.distance_spectrum().iter().enumerate() {
            if cd == 0.0 {
                continue;
            }
            let p2 = if p >= 0.5 {
                0.5
            } else {
                pairwise_error_probability(dfree + i, lp, lq)
            };
            pb += cd * p2;
            if pb >= 0.5 {
                return 0.5; // no later term can lower the bound
            }
        }
        pb.clamp(0.0, 0.5)
    }
}

/// The union bound as first written: every pairwise term re-derives its
/// `ln n!` folds and the channel's two logarithms. Kept as the test
/// oracle that pins [`coded_ber`] bit for bit; nothing else calls it.
pub fn coded_ber_reference(rate: CodeRate, channel_ber: f64) -> f64 {
    fn pairwise_error_probability(d: u32, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 0.5 {
            return 0.5;
        }
        let d = d as i64;
        let mut sum = 0.0;
        let lp = p.ln();
        let lq = (1.0 - p).ln();
        let ln_fact = |n: i64| -> f64 { (1..=n).map(|i| (i as f64).ln()).sum() };
        let lfd = ln_fact(d);
        let start = d / 2 + 1;
        for k in start..=d {
            let ln_c = lfd - ln_fact(k) - ln_fact(d - k);
            sum += (ln_c + k as f64 * lp + (d - k) as f64 * lq).exp();
        }
        if d % 2 == 0 {
            let k = d / 2;
            let ln_c = lfd - ln_fact(k) - ln_fact(d - k);
            sum += 0.5 * (ln_c + k as f64 * lp + (d - k) as f64 * lq).exp();
        }
        sum.min(0.5)
    }
    if channel_ber <= 0.0 {
        return 0.0;
    }
    let p = channel_ber.min(0.5);
    let dfree = rate.free_distance();
    let mut pb = 0.0;
    for (i, &cd) in rate.distance_spectrum().iter().enumerate() {
        if cd == 0.0 {
            continue;
        }
        pb += cd * pairwise_error_probability(dfree + i as u32, p);
    }
    pb.clamp(0.0, 0.5)
}

/// Packet error rate from bit error rate — the paper's Eq. 6:
/// `PER = 1 − (1 − BER)^L`, with `L` in **bits**.
///
/// Assumes independent, uniformly distributed bit errors within the packet
/// (the paper's stated assumption, following \[32\]).
pub fn per_from_ber(ber: f64, packet_len_bits: u32) -> f64 {
    let ber = ber.clamp(0.0, 1.0);
    // ln1p-based form keeps precision when BER is tiny.
    1.0 - ((packet_len_bits as f64) * (-ber).ln_1p()).exp()
}

/// Convenience: PER for a packet of `bytes` bytes.
pub fn per_from_ber_bytes(ber: f64, packet_len_bytes: u32) -> f64 {
    per_from_ber(ber, packet_len_bytes * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairwise term at crossover probability `p ∈ (0, ½]`.
    fn p2(d: usize, p: f64) -> f64 {
        pairwise_error_probability(d, p.ln(), (1.0 - p).ln())
    }

    #[test]
    fn pairwise_error_at_the_extremes() {
        // A near-noiseless channel never confuses paths; at p = ½ the
        // upper tail plus half the tie is exactly a coin flip.
        assert_eq!(p2(10, 1e-300), 0.0);
        for d in [4, 5, 6, 10, 20] {
            assert!((p2(d, 0.5) - 0.5).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn pairwise_error_monotone_in_p() {
        for d in [4, 5, 6, 10] {
            let mut prev = 0.0;
            for i in 1..50 {
                let p = i as f64 * 0.01;
                let v = p2(d, p);
                assert!(v + 1e-15 >= prev, "d={d} p={p}");
                prev = v;
            }
        }
    }

    #[test]
    fn pairwise_error_decreases_with_distance() {
        // Larger Hamming distance → more protection → lower error prob.
        let p = 0.01;
        assert!(p2(10, p) < p2(6, p));
        assert!(p2(6, p) < p2(4, p));
    }

    #[test]
    fn ln_factorial_table_covers_every_spectrum() {
        let d_max = |r: CodeRate| r.free_distance() as usize + r.distance_spectrum().len() - 1;
        assert!(CodeRate::ALL.iter().all(|&r| d_max(r) <= MAX_DISTANCE));
        assert_eq!(d_max(CodeRate::R12), MAX_DISTANCE);
        assert_eq!(ln_factorials()[0], 0.0);
        assert!((ln_factorials()[5] - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn coded_ber_zero_channel_is_zero() {
        for r in CodeRate::ALL {
            assert_eq!(coded_ber(r, 0.0), 0.0);
        }
    }

    #[test]
    fn coding_gain_at_moderate_channel_ber() {
        // At channel BER 1e-3 the K=7 rate-1/2 code should essentially
        // eliminate errors (coded BER far below the uncoded one).
        let cb = coded_ber(CodeRate::R12, 1e-3);
        assert!(cb < 1e-7, "coded BER = {cb}");
    }

    #[test]
    fn weaker_codes_have_higher_coded_ber() {
        for channel_ber in [1e-3, 3e-3, 1e-2] {
            let bers: Vec<f64> = CodeRate::ALL
                .iter()
                .map(|r| coded_ber(*r, channel_ber))
                .collect();
            for w in bers.windows(2) {
                assert!(w[0] <= w[1] * 1.0001, "ber={channel_ber}: {bers:?}");
            }
        }
    }

    #[test]
    fn coded_ber_monotone_in_channel_ber() {
        for r in CodeRate::ALL {
            let mut prev = 0.0;
            for i in 0..100 {
                let p = i as f64 * 0.004;
                let v = coded_ber(r, p);
                assert!(v + 1e-12 >= prev, "{r:?} at p={p}: {v} < {prev}");
                prev = v;
            }
        }
    }

    #[test]
    fn coded_ber_saturates_at_half() {
        for r in CodeRate::ALL {
            assert!(coded_ber(r, 0.5) <= 0.5);
            assert!(coded_ber(r, 0.4) <= 0.5);
        }
    }

    #[test]
    fn per_limits() {
        assert_eq!(per_from_ber(0.0, 12000), 0.0);
        assert!((per_from_ber(1.0, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_for_1500_byte_packet() {
        // BER 1e-5 over 12000 bits → PER ≈ 1 − e^(−0.12) ≈ 0.113.
        let per = per_from_ber_bytes(1e-5, 1500);
        assert!((per - 0.113).abs() < 0.002, "per = {per}");
    }

    #[test]
    fn per_monotone_in_length() {
        let ber = 1e-4;
        let mut prev = 0.0;
        for bytes in [100, 500, 1000, 1500, 3000] {
            let per = per_from_ber_bytes(ber, bytes);
            assert!(per > prev);
            prev = per;
        }
    }

    #[test]
    fn per_tiny_ber_precision() {
        // ln1p form must not round tiny BERs to PER 0 for long packets.
        let per = per_from_ber(1e-12, 12000);
        assert!(per > 1e-9 && per < 2e-8, "per = {per}");
    }

    #[test]
    fn free_distances_match_published_tables() {
        assert_eq!(CodeRate::R12.free_distance(), 10);
        assert_eq!(CodeRate::R23.free_distance(), 6);
        assert_eq!(CodeRate::R34.free_distance(), 5);
        assert_eq!(CodeRate::R56.free_distance(), 4);
    }
}
