//! Iterative radix-2 FFT/IFFT with precomputed plans.
//!
//! The WARP reference design the paper builds on uses a 64-point FFT for
//! 20 MHz channels and a 128-point FFT when channel bonding is enabled
//! ("we implement the CB functionality by appropriately changing the
//! subcarrier mappings, and using a 128-point FFT"). Both sizes are powers
//! of two, so a plain iterative Cooley–Tukey radix-2 transform is all the
//! baseband needs — no external FFT dependency.
//!
//! The Monte-Carlo pipeline transforms the same two lengths millions of
//! times, so the per-transform trigonometry is hoisted into an [`FftPlan`]:
//! the bit-reversal permutation and the twiddle factors `e^{−j2πk/N}` are
//! tabulated once per length and reused for every transform. The
//! module-level [`fft`]/[`ifft`] entry points fetch plans from a
//! thread-local cache keyed by length, so existing callers get the
//! precomputation for free; hot loops can hold a [`plan`] directly and
//! skip even the cache lookup.
//!
//! Conventions: [`fft`] is unnormalized (`X_k = Σ x_n e^{−j2πkn/N}`);
//! [`ifft`] carries the full `1/N` factor, so `ifft(fft(x)) == x`.
//!
//! # Batched lane kernels
//!
//! Beyond the interleaved [`Cplx`]-slice transforms, the plan exposes the
//! real hot path of the OFDM pipeline: **batched** kernels that run
//! [`FFT_BATCH`] same-length transforms in lockstep on split-complex
//! arrays (real and imaginary parts in separate `f64` arrays). The
//! layout is bin-major: element `i` of transform `l` lives at
//! `re[i * FFT_BATCH + l]`, so each butterfly touches [`FFT_BATCH`]
//! contiguous `f64` lanes (one full vector register per operand) and the
//! twiddle factor broadcasts across them — the shape the autovectorizer
//! turns into pure vertical SIMD with no shuffles at all. A Monte-Carlo
//! symbol stream transforms hundreds of equal-length blocks per packet,
//! so the frame pipeline batches its per-symbol FFT/IFFT work eight
//! symbols at a time.
//!
//! The batched kernels evaluate the *same f64 operations in the same
//! order* per transform as the interleaved loop behind
//! [`FftPlan::forward`] / [`FftPlan::inverse_raw`], which stays as their
//! oracle — the batch lanes are mutually independent — so outputs are
//! bit-identical, pinned by `to_bits` equality tests across all sizes.

use crate::cplx::Cplx;
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::rc::Rc;

/// Lane count of the batched kernels: how many same-length transforms
/// [`FftPlan::forward_batch`] / [`FftPlan::inverse_raw_batch`] run in
/// lockstep. Eight `f64` lanes fill one 512-bit vector register.
pub const FFT_BATCH: usize = 8;

/// A precomputed radix-2 transform for one length: bit-reversal table plus
/// forward twiddle factors (interleaved, and split for the batch
/// kernels). Build once (or fetch via [`plan`]), run many.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `bit_rev[i]` = the index `i` maps to in the input permutation.
    bit_rev: Vec<u32>,
    /// `twiddles[j] = e^{−j2πj/n}` for `j < n/2` — the forward factors;
    /// the inverse transform conjugates on lookup.
    twiddles: Vec<Cplx>,
    /// Real parts of `twiddles`, split layout for the batch kernels.
    tw_re: Vec<f64>,
    /// Imaginary parts of `twiddles`, split layout for the batch kernels.
    tw_im: Vec<f64>,
}

impl FftPlan {
    /// Builds the tables for an `n`-point transform. `n` must be a power
    /// of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let bit_rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let twiddles: Vec<Cplx> = (0..n / 2)
            .map(|j| Cplx::cis(-2.0 * PI * j as f64 / n as f64))
            .collect();
        let tw_re = twiddles.iter().map(|t| t.re).collect();
        let tw_im = twiddles.iter().map(|t| t.im).collect();
        FftPlan {
            n,
            bit_rev,
            twiddles,
            tw_re,
            tw_im,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate 0-point plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Forward DFT, in place and unnormalized.
    pub fn forward(&self, buf: &mut [Cplx]) {
        self.check(buf.len());
        self.run(buf, false);
    }

    /// Inverse DFT, in place, normalized by `1/N`.
    pub fn inverse(&self, buf: &mut [Cplx]) {
        self.check(buf.len());
        self.run(buf, true);
        self.scale_interleaved(buf);
    }

    /// Inverse DFT butterflies *without* the `1/N` normalization pass.
    /// The OFDM transmitter folds the factor into the subcarrier
    /// amplitude at grid-fill time (52 or 108 occupied bins instead of a
    /// 64/128-point scaling loop per symbol).
    pub fn inverse_raw(&self, buf: &mut [Cplx]) {
        self.check(buf.len());
        self.run(buf, true);
    }

    #[inline]
    fn check(&self, len: usize) {
        assert_eq!(len, self.n, "buffer length must match the plan length");
    }

    #[inline]
    fn scale_interleaved(&self, buf: &mut [Cplx]) {
        let s = 1.0 / self.n as f64;
        for x in buf.iter_mut() {
            *x = x.scale(s);
        }
    }

    /// Forward DFT of [`FFT_BATCH`] transforms in lockstep, unnormalized.
    /// `re`/`im` hold `n · FFT_BATCH` values in bin-major lane layout:
    /// element `i` of transform `l` at index `i * FFT_BATCH + l`. Each
    /// lane's output is bit-identical to running that transform alone
    /// through [`forward`](FftPlan::forward).
    pub fn forward_batch(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_batch(re.len(), im.len());
        self.run_batch(re, im, false);
    }

    /// Inverse butterflies of [`FFT_BATCH`] transforms in lockstep,
    /// without the `1/N` pass — the batched twin of
    /// [`inverse_raw`](FftPlan::inverse_raw), same layout as
    /// [`forward_batch`](FftPlan::forward_batch).
    pub fn inverse_raw_batch(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_batch(re.len(), im.len());
        self.run_batch(re, im, true);
    }

    #[inline]
    fn check_batch(&self, re_len: usize, im_len: usize) {
        assert_eq!(
            re_len,
            self.n * FFT_BATCH,
            "batch buffer must hold FFT_BATCH transforms"
        );
        assert_eq!(im_len, re_len, "re/im batch buffers must match");
    }

    /// The batched radix-2 stages: identical stage/butterfly order to the
    /// interleaved [`run`](Self::run), with every scalar operation applied
    /// across the [`FFT_BATCH`] contiguous lanes of a bin row and the
    /// twiddle broadcast to all lanes. The two OFDM sizes get
    /// monomorphized trip counts.
    fn run_batch(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        match self.n {
            64 => self.batch_stages_fixed::<64>(re, im, inverse),
            128 => self.batch_stages_fixed::<128>(re, im, inverse),
            _ => self.batch_stages(self.n, re, im, inverse),
        }
    }

    /// Monomorphized batch runner: `N` is a compile-time constant, so the
    /// stage and butterfly loops have known trip counts and unroll.
    fn batch_stages_fixed<const N: usize>(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        self.batch_stages(N, re, im, inverse);
    }

    #[inline(always)]
    fn batch_stages(&self, n: usize, re: &mut [f64], im: &mut [f64], inverse: bool) {
        const B: usize = FFT_BATCH;
        // Bit-reversal permutation, applied to whole bin rows.
        for i in 0..n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                for l in 0..B {
                    re.swap(i * B + l, j * B + l);
                    im.swap(i * B + l, j * B + l);
                }
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            let mut start = 0;
            while start < n {
                // k == 0 carries a unit twiddle — a pure add/sub pair
                // (one third of all butterflies at n = 64).
                let (p, q) = (start * B, (start + half) * B);
                for l in 0..B {
                    let (ur, ui) = (re[p + l], im[p + l]);
                    let (vr, vi) = (re[q + l], im[q + l]);
                    re[p + l] = ur + vr;
                    im[p + l] = ui + vi;
                    re[q + l] = ur - vr;
                    im[q + l] = ui - vi;
                }
                for k in 1..half {
                    let wr = self.tw_re[k * stride];
                    let wi = if inverse {
                        -self.tw_im[k * stride]
                    } else {
                        self.tw_im[k * stride]
                    };
                    let (p, q) = ((start + k) * B, (start + k + half) * B);
                    for l in 0..B {
                        let (xr, xi) = (re[q + l], im[q + l]);
                        let vr = xr * wr - xi * wi;
                        let vi = xr * wi + xi * wr;
                        let (ur, ui) = (re[p + l], im[p + l]);
                        re[p + l] = ur + vr;
                        im[p + l] = ui + vi;
                        re[q + l] = ur - vr;
                        im[q + l] = ui - vi;
                    }
                }
                start += len;
            }
            len <<= 1;
        }
    }

    /// The interleaved radix-2 loop: the single-transform path and the
    /// oracle the batch kernels are pinned against.
    fn run(&self, buf: &mut [Cplx], inverse: bool) {
        let n = self.n;
        for i in 0..n {
            let j = self.bit_rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                // k == 0 carries a unit twiddle — a pure add/sub pair
                // (one third of all butterflies at n = 64).
                let u = buf[start];
                let v = buf[start + half];
                buf[start] = u + v;
                buf[start + half] = u - v;
                for k in 1..half {
                    let tw = self.twiddles[k * stride];
                    let w = if inverse { tw.conj() } else { tw };
                    let u = buf[start + k];
                    let v = buf[start + k + half] * w;
                    buf[start + k] = u + v;
                    buf[start + k + half] = u - v;
                }
            }
            len <<= 1;
        }
    }
}

thread_local! {
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// The cached plan for length `n`, built on first use per thread. `n` must
/// be a power of two.
pub fn plan(n: usize) -> Rc<FftPlan> {
    PLAN_CACHE.with(|c| {
        c.borrow_mut()
            .entry(n)
            .or_insert_with(|| Rc::new(FftPlan::new(n)))
            .clone()
    })
}

/// Forward DFT, in place and unnormalized.
pub fn fft(buf: &mut [Cplx]) {
    plan(buf.len()).forward(buf);
}

/// Inverse DFT, in place, normalized by `1/N` so that `ifft(fft(x)) == x`.
pub fn ifft(buf: &mut [Cplx]) {
    plan(buf.len()).inverse(buf);
}

/// Convenience: out-of-place forward DFT.
pub fn fft_vec(input: &[Cplx]) -> Vec<Cplx> {
    let mut buf = input.to_vec();
    fft(&mut buf);
    buf
}

/// Convenience: out-of-place inverse DFT.
pub fn ifft_vec(input: &[Cplx]) -> Vec<Cplx> {
    let mut buf = input.to_vec();
    ifft(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut buf = vec![Cplx::ZERO; 8];
        buf[0] = Cplx::ONE;
        fft(&mut buf);
        for s in &buf {
            assert!(close(*s, Cplx::ONE));
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut buf: Vec<Cplx> = (0..n)
            .map(|i| Cplx::cis(2.0 * PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        fft(&mut buf);
        for (k, s) in buf.iter().enumerate() {
            if k == k0 {
                assert!((s.abs() - n as f64).abs() < 1e-6, "bin {k}: {}", s.abs());
            } else {
                assert!(s.abs() < 1e-6, "leakage in bin {k}: {}", s.abs());
            }
        }
    }

    use std::f64::consts::PI;

    #[test]
    fn roundtrip_is_identity() {
        for n in [2usize, 8, 64, 128, 256] {
            let input: Vec<Cplx> = (0..n)
                .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 1.13).cos()))
                .collect();
            let rt = ifft_vec(&fft_vec(&input));
            for (a, b) in input.iter().zip(rt.iter()) {
                assert!(close(*a, *b));
            }
        }
    }

    #[test]
    fn matches_direct_dft() {
        // The plan's tabulated butterflies against the O(N²) definition.
        for n in [4usize, 16, 64, 128] {
            let input: Vec<Cplx> = (0..n)
                .map(|i| Cplx::new((i as f64 * 0.61).cos(), (i as f64 * 0.29).sin()))
                .collect();
            let fast = fft_vec(&input);
            for k in 0..n {
                let direct = (0..n).fold(Cplx::ZERO, |acc, t| {
                    acc + input[t] * Cplx::cis(-2.0 * PI * (k * t) as f64 / n as f64)
                });
                assert!(
                    (fast[k] - direct).abs() < 1e-7 * (n as f64),
                    "n={n} bin {k}: {fast:?} vs direct"
                );
            }
        }
    }

    #[test]
    fn plan_cache_reuses_plans_per_length() {
        let a = plan(64);
        let b = plan(64);
        assert!(Rc::ptr_eq(&a, &b), "same length must hit the cache");
        assert_eq!(plan(128).len(), 128);
    }

    #[test]
    fn explicit_plan_matches_module_entry_points() {
        let p = FftPlan::new(64);
        let input: Vec<Cplx> = (0..64)
            .map(|i| Cplx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut a = input.clone();
        p.forward(&mut a);
        let b = fft_vec(&input);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.re.to_bits(),
                y.re.to_bits(),
                "plan and cache paths must agree exactly"
            );
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let input: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|s| s.norm_sqr()).sum();
        let spec = fft_vec(&input);
        let freq_energy: f64 = spec.iter().map(|s| s.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<Cplx> = (0..n).map(|i| Cplx::new(i as f64, 0.0)).collect();
        let b: Vec<Cplx> = (0..n).map(|i| Cplx::new(0.0, (i * i) as f64)).collect();
        let sum: Vec<Cplx> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft_vec(&a);
        let fb = fft_vec(&b);
        let fsum = fft_vec(&sum);
        for k in 0..n {
            assert!(close(fsum[k], fa[k] + fb[k]));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut buf = vec![Cplx::ZERO; 48];
        fft(&mut buf);
    }

    #[test]
    #[should_panic(expected = "must match the plan length")]
    fn wrong_buffer_length_panics() {
        let p = FftPlan::new(64);
        let mut buf = vec![Cplx::ZERO; 32];
        p.forward(&mut buf);
    }
}
