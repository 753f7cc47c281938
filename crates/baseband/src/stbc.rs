//! Alamouti 2×2 space-time block coding.
//!
//! The paper transmits its WARP frames "using 2x2 STBC (Space Time Block
//! Codes with two antennas — Alamouti); we use the STBC mode of
//! transmission since on poor quality links, the auto-rate function of our
//! 802.11n cards induces operations in this mode."
//!
//! Alamouti encodes symbol pairs `(s1, s2)` over two antennas and two
//! symbol periods:
//!
//! ```text
//! time:      t1        t2
//! antenna 1: s1/√2   −s2*/√2
//! antenna 2: s2/√2    s1*/√2
//! ```
//!
//! (the `1/√2` keeps total transmit power equal to the single-antenna
//! case, as the 802.11n spec requires). With per-path flat gains `h_ij`
//! (tx antenna i → rx antenna j) constant over the pair, maximum-ratio
//! combining at the receiver recovers each symbol with diversity order
//! `2·N_rx` and effective gain `Σ|h_ij|²/2`.
//!
//! [`alamouti_slot`] is the one encoder: the frame layer maps every
//! subcarrier's symbol pair through it and combines with
//! [`alamouti_combine`].

use crate::cplx::Cplx;

/// One symbol time of the Alamouti code: the samples antennas 1 and 2
/// send for the pair `(s1, s2)` at `t1` (`time == 0`) or `t2`, each
/// scaled by `k` — the `1/√2` power split times any transmit amplitude.
/// The frame's STBC transmitter maps every subcarrier's pair through it.
pub fn alamouti_slot(s1: Cplx, s2: Cplx, time: usize, k: f64) -> [Cplx; 2] {
    if time == 0 {
        [s1.scale(k), s2.scale(k)]
    } else {
        [-s2.conj().scale(k), s1.conj().scale(k)]
    }
}

/// Flat channel gains of a 2×2 link: `h[i][j]` is transmit antenna `i+1` →
/// receive antenna `j+1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mimo2x2 {
    /// Path gains, `h[tx][rx]`.
    pub h: [[Cplx; 2]; 2],
}

impl Mimo2x2 {
    /// Total channel energy `Σ|h_ij|²`.
    pub fn energy(&self) -> f64 {
        self.h.iter().flatten().map(|g| g.norm_sqr()).sum()
    }
}

/// Alamouti maximum-ratio combining for one received pair.
///
/// `r1` and `r2` are the two receive antennas' samples at the two symbol
/// times (`r1 = [r1(t1), r1(t2)]`). Returns the combined estimates
/// `(ŝ1, ŝ2)`, normalized so that a noiseless channel returns the original
/// symbols exactly (the combiner divides by the channel energy and undoes
/// the `1/√2` power split).
pub fn alamouti_combine(ch: &Mimo2x2, r1: [Cplx; 2], r2: [Cplx; 2]) -> (Cplx, Cplx) {
    let [h11, h12] = ch.h[0];
    let [h21, h22] = ch.h[1];
    // Standard Alamouti combining, summed over both receive antennas.
    let mut s1 = h11.conj() * r1[0] + h21 * r1[1].conj();
    s1 += h12.conj() * r2[0] + h22 * r2[1].conj();
    let mut s2 = h21.conj() * r1[0] - h11 * r1[1].conj();
    s2 += h22.conj() * r2[0] - h12 * r2[1].conj();
    let energy = ch.energy();
    if energy <= 0.0 {
        return (Cplx::ZERO, Cplx::ZERO);
    }
    let k = std::f64::consts::SQRT_2 / energy;
    (s1.scale(k), s2.scale(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::complex_gaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_channel(rng: &mut StdRng) -> Mimo2x2 {
        Mimo2x2 {
            h: [
                [complex_gaussian(rng, 1.0), complex_gaussian(rng, 1.0)],
                [complex_gaussian(rng, 1.0), complex_gaussian(rng, 1.0)],
            ],
        }
    }

    /// The two antennas' streams of `symbols` under the frame's mapping
    /// (an odd tail zero-padded to a whole pair) at the `1/√2` split
    /// alone.
    fn encode(symbols: &[Cplx]) -> (Vec<Cplx>, Vec<Cplx>) {
        let k = std::f64::consts::SQRT_2.recip();
        let (mut ant1, mut ant2) = (Vec::new(), Vec::new());
        for pair in symbols.chunks(2) {
            let s2 = pair.get(1).copied().unwrap_or(Cplx::ZERO);
            for time in 0..2 {
                let [a1, a2] = alamouti_slot(pair[0], s2, time, k);
                ant1.push(a1);
                ant2.push(a2);
            }
        }
        (ant1, ant2)
    }

    /// `symbols` through [`encode`], a flat 2×2 channel, `noise` added to
    /// every receive sample, and [`alamouti_combine`].
    fn transmit(symbols: &[Cplx], ch: &Mimo2x2, mut noise: impl FnMut() -> Cplx) -> Vec<Cplx> {
        let (ant1, ant2) = encode(symbols);
        let [[h11, h12], [h21, h22]] = ch.h;
        let through = |g1: Cplx, g2: Cplx| -> Vec<Cplx> {
            ant1.iter()
                .zip(&ant2)
                .map(|(a, b)| g1 * *a + g2 * *b)
                .collect()
        };
        let (mut rx1, mut rx2) = (through(h11, h21), through(h12, h22));
        for s in rx1.iter_mut().chain(rx2.iter_mut()) {
            *s += noise();
        }
        let mut out: Vec<Cplx> = (0..rx1.len())
            .step_by(2)
            .flat_map(|t| {
                let (s1, s2) = alamouti_combine(ch, [rx1[t], rx1[t + 1]], [rx2[t], rx2[t + 1]]);
                [s1, s2]
            })
            .collect();
        out.truncate(symbols.len());
        out
    }

    fn qpsk_symbols(n: usize, seed: u64) -> Vec<Cplx> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let re = if rand::Rng::gen::<bool>(&mut rng) {
                    1.0
                } else {
                    -1.0
                };
                let im = if rand::Rng::gen::<bool>(&mut rng) {
                    1.0
                } else {
                    -1.0
                };
                Cplx::new(re, im).scale(std::f64::consts::SQRT_2.recip())
            })
            .collect()
    }

    #[test]
    fn encode_preserves_total_power() {
        let syms = qpsk_symbols(1000, 3);
        let (a1, a2) = encode(&syms);
        // Total power per time slot, summed across both antennas, equals
        // the single-antenna symbol power (1.0): the 1/√2 split halves
        // each antenna's share.
        let total: f64 = a1
            .iter()
            .chain(a2.iter())
            .map(|s| s.norm_sqr())
            .sum::<f64>()
            / a1.len() as f64;
        assert!((total - 1.0).abs() < 1e-12, "per-slot total power {total}");
        let ant1_only: f64 = a1.iter().map(|s| s.norm_sqr()).sum::<f64>() / a1.len() as f64;
        assert!(
            (ant1_only - 0.5).abs() < 1e-12,
            "per-antenna power {ant1_only}"
        );
    }

    #[test]
    fn noiseless_roundtrip_identity_channel() {
        let syms = qpsk_symbols(64, 5);
        let ch = Mimo2x2 {
            h: [[Cplx::ONE, Cplx::ZERO], [Cplx::ZERO, Cplx::ONE]],
        };
        let out = transmit(&syms, &ch, || Cplx::ZERO);
        for (a, b) in syms.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn noiseless_roundtrip_random_channel() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let ch = random_channel(&mut rng);
            let syms = qpsk_symbols(32, 11);
            let out = transmit(&syms, &ch, || Cplx::ZERO);
            for (a, b) in syms.iter().zip(out.iter()) {
                assert!((*a - *b).abs() < 1e-9, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn odd_length_input_roundtrips() {
        let syms = qpsk_symbols(7, 13);
        let mut rng = StdRng::seed_from_u64(17);
        let ch = random_channel(&mut rng);
        let out = transmit(&syms, &ch, || Cplx::ZERO);
        assert_eq!(out.len(), 7);
        for (a, b) in syms.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn diversity_beats_siso_in_deep_fade() {
        // When one path is in a deep fade, the other three keep the
        // combined SNR up — the whole point of STBC on poor links.
        let ch = Mimo2x2 {
            h: [
                [Cplx::new(0.05, 0.0), Cplx::ONE],
                [Cplx::new(0.8, 0.3), Cplx::new(0.0, 0.9)],
            ],
        };
        assert!(ch.energy() > 1.0);
        let syms = qpsk_symbols(512, 19);
        let mut rng = StdRng::seed_from_u64(23);
        let out = transmit(&syms, &ch, || complex_gaussian(&mut rng, 0.05));
        // Hard-decide QPSK and count symbol errors.
        let errors = syms
            .iter()
            .zip(out.iter())
            .filter(|(a, b)| (a.re >= 0.0) != (b.re >= 0.0) || (a.im >= 0.0) != (b.im >= 0.0))
            .count();
        assert!(
            errors == 0,
            "STBC should survive one deep-faded path, got {errors} errors"
        );
    }

    #[test]
    fn zero_channel_returns_zero() {
        let ch = Mimo2x2 {
            h: [[Cplx::ZERO; 2]; 2],
        };
        let (s1, s2) = alamouti_combine(&ch, [Cplx::ONE, Cplx::ONE], [Cplx::ONE, Cplx::ONE]);
        assert_eq!(s1, Cplx::ZERO);
        assert_eq!(s2, Cplx::ZERO);
    }
}
