//! Property tests pinning the lane-shaped kernels to their oracles.
//!
//! Two families of equivalences, both exact (`to_bits` for floats, `==`
//! for bits):
//!
//! * The lane/AVX-512 Viterbi paths ([`viterbi_decode_into`],
//!   [`viterbi_classes_into`], [`Codec::decode_into`]) against the
//!   retained state-major scalar decoder [`viterbi_decode_scalar`],
//!   across random received symbols, erasure patterns, puncturing rates
//!   and trellis lengths.
//! * The batched FFT kernels against the interleaved radix-2 loop
//!   (`forward`/`inverse_raw`), across all power-of-two sizes the plan
//!   accepts, with independent random data in every batch lane.
//!
//! These are the contract that lets the frame pipeline switch freely
//! between the per-packet and batched engines without perturbing a single
//! golden figure.

use acorn_baseband::convcode::{
    viterbi_classes_into, viterbi_decode_into, viterbi_decode_scalar, Codec, TAIL_BITS,
};
use acorn_baseband::cplx::Cplx;
use acorn_baseband::fft::{FftPlan, FFT_BATCH};
use acorn_phy::CodeRate;
use proptest::prelude::*;

/// One received (possibly erased) code-bit pair, drawn uniformly over the
/// nine (erasure, 0, 1)² combinations.
fn pair_strategy() -> impl Strategy<Value = (Option<bool>, Option<bool>)> {
    let sym = |s: u8| match s {
        0 => None,
        1 => Some(false),
        _ => Some(true),
    };
    (0u8..9).prop_map(move |c| (sym(c / 3), sym(c % 3)))
}

/// The class byte the depuncturer assigns to a pair: `3·sym(a) + sym(b)`
/// with `sym` mapping erasure → 0, 0-bit → 1, 1-bit → 2.
fn class_of(pair: (Option<bool>, Option<bool>)) -> u8 {
    let sym = |s: Option<bool>| match s {
        None => 0u8,
        Some(false) => 1,
        Some(true) => 2,
    };
    3 * sym(pair.0) + sym(pair.1)
}

proptest! {
    /// Lane-shaped decoder ≡ scalar oracle on arbitrary symbol/erasure
    /// sequences and lengths.
    #[test]
    fn lane_viterbi_matches_scalar_oracle(
        pairs in proptest::collection::vec(pair_strategy(), TAIL_BITS..300),
    ) {
        let info_len = pairs.len() - TAIL_BITS;
        let expected = viterbi_decode_scalar(&pairs, info_len);
        let (mut survivor, mut decoded) = (Vec::new(), Vec::new());
        viterbi_decode_into(&pairs, info_len, &mut survivor, &mut decoded);
        prop_assert_eq!(&decoded, &expected);
    }

    /// The class-byte entry (the measured frame path, AVX-512 where
    /// available) ≡ scalar oracle on the same sequences.
    #[test]
    fn class_viterbi_matches_scalar_oracle(
        pairs in proptest::collection::vec(pair_strategy(), TAIL_BITS..300),
    ) {
        let info_len = pairs.len() - TAIL_BITS;
        let expected = viterbi_decode_scalar(&pairs, info_len);
        let classes: Vec<u8> = pairs.iter().map(|&p| class_of(p)).collect();
        let (mut survivor, mut decoded) = (Vec::new(), Vec::new());
        viterbi_classes_into(&classes, info_len, &mut survivor, &mut decoded);
        prop_assert_eq!(&decoded, &expected);
    }

    /// Scratch reuse must not leak state between decodes of different
    /// lengths: a long decode followed by a short one matches a fresh
    /// short decode.
    #[test]
    fn survivor_scratch_reuse_is_stateless(
        long in proptest::collection::vec(pair_strategy(), 200..260),
        short in proptest::collection::vec(pair_strategy(), TAIL_BITS..60),
    ) {
        let (mut survivor, mut decoded) = (Vec::new(), Vec::new());
        viterbi_decode_into(&long, long.len() - TAIL_BITS, &mut survivor, &mut decoded);
        viterbi_decode_into(&short, short.len() - TAIL_BITS, &mut survivor, &mut decoded);
        prop_assert_eq!(&decoded, &viterbi_decode_scalar(&short, short.len() - TAIL_BITS));
    }

    /// Full codec path with puncturing: `decode_into` (class-based
    /// depuncture + lane Viterbi) ≡ depuncture + scalar oracle, under
    /// random channel bit-flips at every rate.
    #[test]
    fn codec_decode_into_matches_scalar_oracle(
        rate_idx in 0..4usize,
        info in proptest::collection::vec(any::<bool>(), 1..200),
        flips in proptest::collection::vec(any::<u16>(), 0..40),
    ) {
        let rate = CodeRate::ALL[rate_idx];
        let codec = Codec::new(rate);
        let mut tx = codec.encode(&info);
        for f in flips {
            let i = f as usize % tx.len();
            tx[i] = !tx[i];
        }
        let pairs = acorn_baseband::convcode::depuncture(&tx, rate, info.len() + TAIL_BITS);
        let expected = viterbi_decode_scalar(&pairs, info.len());
        let (mut classes, mut survivor, mut out) = (Vec::new(), Vec::new(), Vec::new());
        codec.decode_into(&tx, info.len(), &mut classes, &mut survivor, &mut out);
        prop_assert_eq!(&out, &expected);
    }

    /// Batched kernels ≡ interleaved oracle in every lane, with distinct
    /// random data per lane, at every power-of-two size up to 256.
    #[test]
    fn batch_kernels_match_interleaved_oracle(
        log_n in 1u32..9,
        seed in any::<u64>(),
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let plan = FftPlan::new(n);
        let lanes: Vec<Vec<Cplx>> = (0..FFT_BATCH)
            .map(|l| lcg_signal(n, seed.wrapping_add(l as u64)))
            .collect();
        // Bin-major planar pack.
        let mut re = vec![0.0; n * FFT_BATCH];
        let mut im = vec![0.0; n * FFT_BATCH];
        for (l, lane) in lanes.iter().enumerate() {
            for (i, z) in lane.iter().enumerate() {
                re[i * FFT_BATCH + l] = z.re;
                im[i * FFT_BATCH + l] = z.im;
            }
        }
        if inverse {
            plan.inverse_raw_batch(&mut re, &mut im);
        } else {
            plan.forward_batch(&mut re, &mut im);
        }
        for (l, lane) in lanes.iter().enumerate() {
            let mut oracle = lane.clone();
            if inverse {
                plan.inverse_raw(&mut oracle);
            } else {
                plan.forward(&mut oracle);
            }
            for (i, z) in oracle.iter().enumerate() {
                prop_assert_eq!(z.re.to_bits(), re[i * FFT_BATCH + l].to_bits());
                prop_assert_eq!(z.im.to_bits(), im[i * FFT_BATCH + l].to_bits());
            }
        }
    }
}

/// A deterministic pseudo-random complex signal (no RNG dependency needed
/// here: a 64-bit LCG mapped to `[-1, 1)` components).
fn lcg_signal(n: usize, seed: u64) -> Vec<Cplx> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| Cplx::new(next(), next())).collect()
}
