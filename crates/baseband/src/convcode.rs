//! The 802.11 convolutional codec: K=7 (133, 171) encoder, puncturing, and
//! a hard-decision Viterbi decoder.
//!
//! Commodity 802.11n cards apply this FEC below the PER the paper measures
//! in §3.2 ("A small increase in the raw uncoded BER ... might result in no
//! change in the PER on a commercial coded system like 802.11n"). Having a
//! real codec lets the baseband produce *coded* Monte-Carlo PER curves to
//! cross-validate the analytic union bound in `acorn-phy::coding`.
//!
//! * Mother code: rate 1/2, constraint length 7, generators 133/171 octal.
//! * Puncturing: the standard 802.11a/n matrices for rates 2/3, 3/4, 5/6.
//! * Termination: six zero tail bits return the encoder to state 0, so the
//!   decoder tracebacks from a known state.

use acorn_phy::CodeRate;

/// Generator polynomial G0 = 133 octal (window MSB = current input bit).
const G0: u32 = 0o133;
/// Generator polynomial G1 = 171 octal.
const G1: u32 = 0o171;
/// Number of trellis states (2^(K−1) = 64).
const STATES: usize = 64;
/// Tail bits appended to terminate the trellis.
pub const TAIL_BITS: usize = 6;

#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn parity(x: u32) -> bool {
    x.count_ones() % 2 == 1
}

/// One trellis branch: given a 6-bit state and an input bit, produce the
/// coded bit pair and the successor state.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn step(state: u32, input: bool) -> (bool, bool, u32) {
    let window = ((input as u32) << 6) | state;
    (parity(window & G0), parity(window & G1), window >> 1)
}

/// Coded output of every (state, input) branch, packed as `A | B<<1` and
/// tabulated at compile time — the decoder's inner loop does one byte load
/// where [`step`] computes two parities.
const BRANCH_OUT: [u8; 2 * STATES] = {
    let mut t = [0u8; 2 * STATES];
    let mut s = 0;
    while s < STATES {
        let mut input = 0;
        while input < 2 {
            let window = ((input as u32) << 6) | s as u32;
            let a = (window & G0).count_ones() & 1;
            let b = (window & G1).count_ones() & 1;
            t[2 * s + input] = (a | (b << 1)) as u8;
            input += 1;
        }
        s += 1;
    }
    t
};

/// Successor state of a branch: the input bit shifts into the window MSB.
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn next_state(state: usize, input: usize) -> usize {
    (state >> 1) | (input << 5)
}

/// Rate-1/2 convolutional encoding with trellis termination: encodes
/// `bits` followed by six zero tail bits, producing `2·(len+6)` coded bits
/// as interleaved (A, B) pairs.
pub fn encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::new();
    encode_into(bits, &mut out);
    out
}

/// Allocation-free [`encode`]: clears and refills `out`.
///
/// The branch outputs come from the `BRANCH_OUT` table (one byte load
/// per bit instead of two parity computations), and the output is written
/// by index into a pre-sized buffer so the loop carries no capacity
/// checks.
pub fn encode_into(bits: &[bool], out: &mut Vec<bool>) {
    let total = bits.len() + TAIL_BITS;
    out.clear();
    out.resize(2 * total, false);
    let mut state = 0usize;
    for (i, &b) in bits.iter().enumerate() {
        let o = BRANCH_OUT[2 * state + b as usize];
        out[2 * i] = o & 1 != 0;
        out[2 * i + 1] = o & 2 != 0;
        state = (state >> 1) | ((b as usize) << 5);
    }
    for i in bits.len()..total {
        let o = BRANCH_OUT[2 * state];
        out[2 * i] = o & 1 != 0;
        out[2 * i + 1] = o & 2 != 0;
        state >>= 1;
    }
    debug_assert_eq!(state, 0, "tail bits must return the encoder to state 0");
}

/// The puncturing matrix of a code rate: `(keep_a, keep_b)` per position of
/// the puncturing period. Rate 1/2 keeps everything.
fn puncture_pattern(rate: CodeRate) -> (&'static [bool], &'static [bool]) {
    match rate {
        CodeRate::R12 => (&[true], &[true]),
        CodeRate::R23 => (&[true, true], &[true, false]),
        CodeRate::R34 => (&[true, true, false], &[true, false, true]),
        CodeRate::R56 => (
            &[true, true, false, true, false],
            &[true, false, true, false, true],
        ),
    }
}

/// Punctures a rate-1/2 coded stream (as produced by [`encode`]) down to
/// the target rate by deleting bits per the standard matrices.
pub fn puncture(coded: &[bool], rate: CodeRate) -> Vec<bool> {
    let mut out = Vec::new();
    puncture_into(coded, rate, &mut out);
    out
}

/// Allocation-free [`puncture`]: clears and refills `out`. The one
/// puncturing loop; [`Codec::encode_into`] runs it too.
fn puncture_into(coded: &[bool], rate: CodeRate, out: &mut Vec<bool>) {
    assert!(
        coded.len().is_multiple_of(2),
        "coded stream must be whole (A,B) pairs"
    );
    let (pa, pb) = puncture_pattern(rate);
    let period = pa.len();
    out.clear();
    out.reserve(coded.len());
    for (i, pair) in coded.chunks(2).enumerate() {
        let slot = i % period;
        if pa[slot] {
            out.push(pair[0]);
        }
        if pb[slot] {
            out.push(pair[1]);
        }
    }
}

/// Re-inflates a punctured stream into `(Option<A>, Option<B>)` pairs, with
/// `None` marking erased (punctured) positions that contribute no branch
/// metric. `n_pairs` is the original pair count, `info_len + TAIL_BITS`.
pub fn depuncture(
    rx: &[bool],
    rate: CodeRate,
    n_pairs: usize,
) -> Vec<(Option<bool>, Option<bool>)> {
    let (pa, pb) = puncture_pattern(rate);
    let period = pa.len();
    let mut it = rx.iter();
    (0..n_pairs)
        .map(|i| {
            let slot = i % period;
            let a = if pa[slot] { it.next().copied() } else { None };
            let b = if pb[slot] { it.next().copied() } else { None };
            (a, b)
        })
        .collect()
}

/// Depunctures straight into received-symbol *class* bytes
/// (`3·sym(a) + sym(b)`, the index of a `COST_SOA` table), skipping the
/// intermediate `(Option, Option)` pair representation: at rate 1/2 (no
/// puncturing) this is one branchless byte per received bit pair, a loop
/// the autovectorizer handles, where building `Option` pairs walks a
/// serial iterator.
pub fn depuncture_classes_into(rx: &[bool], rate: CodeRate, n_pairs: usize, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(n_pairs);
    if rate == CodeRate::R12 && rx.len() >= 2 * n_pairs {
        // sym(Some(bit)) = 1 + bit, so the class is 4 + 3a + b.
        out.extend(
            rx.chunks_exact(2)
                .take(n_pairs)
                .map(|p| 4 + 3 * (p[0] as u8) + (p[1] as u8)),
        );
        return;
    }
    let (pa, pb) = puncture_pattern(rate);
    let period = pa.len();
    let mut it = rx.iter();
    for i in 0..n_pairs {
        let slot = i % period;
        let a = if pa[slot] { it.next().copied() } else { None };
        let b = if pb[slot] { it.next().copied() } else { None };
        out.push((3 * sym(a) + sym(b)) as u8);
    }
}

/// Half the state count — the lane width of the SoA ACS step.
const HALF: usize = STATES / 2;

/// Metric value large enough to never be chosen over a genuine path,
/// small enough that `INF` + (a few branch metrics) cannot wrap a `u16`.
const INF: u16 = 0x7000;

/// Maps a received (possibly erased) bit to its symbol class 0/1/2
/// (erased / zero / one); a pair selects one of the nine [`COST_SOA`]
/// tables.
#[inline]
fn sym(r: Option<bool>) -> usize {
    match r {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    }
}

/// Branch metrics in structure-of-arrays layout, one table per received
/// symbol class pair: for lane `j` (successor pair `j` / `j + 32`),
/// `[0][j]` is the cost of the even predecessor `2j` on input 0, `[1][j]`
/// the odd predecessor `2j + 1` on input 0, `[2][j]`/`[3][j]` the same on
/// input 1. Tabulated at compile time so the ACS inner loop is four
/// *contiguous* u16 streams — no per-step table expansion and no strided
/// gathers, exactly the shape the autovectorizer turns into lane ops.
const COST_SOA: [[[u16; HALF]; 4]; 9] = {
    let mut t = [[[0u16; HALF]; 4]; 9];
    let mut v = 0;
    while v < 9 {
        let (va, vb) = (v / 3, v % 3);
        let mut bm = [0u16; 4];
        let mut out = 0;
        while out < 4 {
            let mut m = 0;
            if va != 0 && ((va == 2) != (out & 1 == 1)) {
                m += 1;
            }
            if vb != 0 && ((vb == 2) != (out & 2 == 2)) {
                m += 1;
            }
            bm[out] = m;
            out += 1;
        }
        let mut j = 0;
        while j < HALF {
            t[v][0][j] = bm[BRANCH_OUT[2 * (2 * j)] as usize];
            t[v][1][j] = bm[BRANCH_OUT[2 * (2 * j + 1)] as usize];
            t[v][2][j] = bm[BRANCH_OUT[2 * (2 * j) + 1] as usize];
            t[v][3][j] = bm[BRANCH_OUT[2 * (2 * j + 1) + 1] as usize];
            j += 1;
        }
        v += 1;
    }
    t
};

/// Hard-decision Viterbi decoding of `pairs` (with erasures), returning
/// `info_len` decoded information bits. Assumes the encoder started in
/// state 0 and was terminated with [`TAIL_BITS`] zero bits; the traceback
/// therefore starts from state 0 at the end of the trellis.
pub fn viterbi_decode(pairs: &[(Option<bool>, Option<bool>)], info_len: usize) -> Vec<bool> {
    let mut survivor = Vec::new();
    let mut decoded = Vec::new();
    viterbi_decode_into(pairs, info_len, &mut survivor, &mut decoded);
    decoded
}

/// One lane-shaped ACS step: `src` holds the 64 state-major path metrics
/// entering the step, `dst` receives the 64 successor metrics, and the
/// returned word packs the 64 survivor choices (bit `s` = choice of state
/// `s`). The predecessor pair `(2j, 2j+1)` feeds exactly the two
/// successors `j` (input 0) and `j + 32` (input 1): the metrics are
/// de-interleaved once into an *even* lane array (`ev[j]` = metric of
/// state `2j`) and an *odd* array (`od[j]` = metric of `2j + 1`), then
/// each pass is pure lane arithmetic over 32 contiguous `u16` lanes —
/// add, branchless compare, branchless select, mask accumulate — the
/// shape the autovectorizer maps onto SIMD add/compare/min and
/// compare-mask instructions, with the branch metrics streaming from the
/// compile-time SoA tables in [`COST_SOA`].
#[inline(always)]
fn acs_step_packed(src: &[u16; STATES], dst: &mut [u16; STATES], v: usize) -> u64 {
    let cost = &COST_SOA[v];
    let mut ev = [0u16; HALF];
    let mut od = [0u16; HALF];
    for j in 0..HALF {
        ev[j] = src[2 * j];
        od[j] = src[2 * j + 1];
    }
    let (lo, hi) = dst.split_at_mut(HALF);
    // Input-0 successors j: predecessors (2j, 2j+1).
    let mut w0 = 0u64;
    for j in 0..HALF {
        let a = ev[j] + cost[0][j];
        let b = od[j] + cost[1][j];
        let take = b < a;
        lo[j] = if take { b } else { a };
        w0 |= (take as u64) << j;
    }
    // Input-1 successors j + 32: same predecessors, other branch.
    let mut w1 = 0u64;
    for j in 0..HALF {
        let a = ev[j] + cost[2][j];
        let b = od[j] + cost[3][j];
        let take = b < a;
        hi[j] = if take { b } else { a };
        w1 |= (take as u64) << j;
    }
    w0 | (w1 << HALF)
}

/// The shared trellis walk: `class_of(t)` yields the received-symbol
/// class index (`3·sym(a) + sym(b)`) of step `t`. Monomorphized twice —
/// over precomputed class bytes (the hot path, [`viterbi_classes_into`])
/// and over `(Option, Option)` pairs ([`viterbi_decode_into`]) — so both
/// entries walk the same [`acs_step_packed`] kernel.
///
/// The metric banks are double-buffered by step parity (no per-step
/// metric copy), and the 64 survivor choices of each step land in a
/// single packed `u64` word, shrinking survivor memory 8× (one word per
/// step instead of 64 bytes) so long trellises stay cache-resident.
///
/// Tie-breaking (the lower-numbered predecessor wins on equal metrics)
/// and the metric arithmetic are exactly those of the retained
/// state-major oracle [`viterbi_decode_scalar`]; the decoded output is
/// bit-identical for every input (pinned by the kernel-equivalence
/// proptests).
#[inline(always)]
fn viterbi_core(
    n: usize,
    info_len: usize,
    class_of: impl Fn(usize) -> usize,
    survivor: &mut Vec<u64>,
    decoded: &mut Vec<bool>,
) {
    assert!(
        n < (INF as usize - 16) / 2,
        "trellis too long for u16 metrics"
    );

    // One packed word per step; `resize` only zeroes freshly grown
    // memory, and every word is overwritten before the traceback reads it.
    if survivor.len() < n {
        survivor.resize(n, 0);
    }

    let mut bufs = [[INF; STATES]; 2];
    bufs[0][0] = 0; // state 0
    for t in 0..n {
        let v = class_of(t);
        let (b0, b1) = bufs.split_at_mut(1);
        survivor[t] = if t % 2 == 0 {
            acs_step_packed(&b0[0], &mut b1[0], v)
        } else {
            acs_step_packed(&b1[0], &mut b0[0], v)
        };
    }

    traceback(n, info_len, survivor, decoded);
}

/// Allocation-free core of [`viterbi_decode`]: the survivor memory and the
/// output vector are caller-provided scratch, resized (never shrunk) so a
/// reused buffer costs no allocation in steady state. See `viterbi_core`
/// for the lane-shaped ACS design; the measured decode path goes through
/// [`viterbi_classes_into`] instead, which skips the per-step `Option`
/// unpacking.
pub fn viterbi_decode_into(
    pairs: &[(Option<bool>, Option<bool>)],
    info_len: usize,
    survivor: &mut Vec<u64>,
    decoded: &mut Vec<bool>,
) {
    assert_eq!(
        pairs.len(),
        info_len + TAIL_BITS,
        "trellis length must be info_len + tail"
    );
    viterbi_core(
        pairs.len(),
        info_len,
        |t| {
            let (ra, rb) = pairs[t];
            3 * sym(ra) + sym(rb)
        },
        survivor,
        decoded,
    );
}

/// [`viterbi_decode_into`] over precomputed received-symbol class bytes
/// (as produced by [`depuncture_classes_into`]): the hot decode path.
/// `classes[t]` is `3·sym(a) + sym(b)` of trellis step `t`, so the ACS
/// step indexes its branch-metric table directly instead of unpacking
/// two `Option<bool>`s per step.
pub fn viterbi_classes_into(
    classes: &[u8],
    info_len: usize,
    survivor: &mut Vec<u64>,
    decoded: &mut Vec<bool>,
) {
    assert_eq!(
        classes.len(),
        info_len + TAIL_BITS,
        "trellis length must be info_len + tail"
    );
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
    {
        // Same recursion with the metric banks held in two zmm registers
        // for the whole trellis — one survivor-word store per step is the
        // only per-step memory traffic besides the cost-table loads. The
        // portable path below stays the reference on other targets.
        let n = classes.len();
        assert!(
            n < (INF as usize - 16) / 2,
            "trellis too long for u16 metrics"
        );
        if survivor.len() < n {
            survivor.resize(n, 0);
        }
        avx512::acs_run(classes, survivor);
        traceback(n, info_len, survivor, decoded);
        return;
    }
    #[allow(unreachable_code)]
    viterbi_core(
        classes.len(),
        info_len,
        |t| (classes[t] as usize) % 9,
        survivor,
        decoded,
    );
}

/// Shared traceback from the terminated state 0: the input bit that
/// *entered* state `s` is its top window bit, the predecessor is
/// `2·(s & 31)` plus the recorded choice.
fn traceback(n: usize, info_len: usize, survivor: &[u64], decoded: &mut Vec<bool>) {
    let mut state = 0usize;
    decoded.resize(n, false);
    for t in (0..n).rev() {
        decoded[t] = state >> 5 != 0;
        state = ((state & 31) << 1) | ((survivor[t] >> state) & 1) as usize;
    }
    decoded.truncate(info_len);
}

/// AVX-512BW ACS kernel: 32 u16 butterflies per instruction, two
/// instructions' worth of lanes covering all 64 states.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
#[allow(unsafe_code)] // std::arch intrinsics; the crate is otherwise safe.
mod avx512 {
    use super::{COST_SOA, HALF, INF, STATES};
    use std::arch::x86_64::*;

    /// Lane-gather indices pulling the even (resp. odd) u16 lanes out of
    /// the concatenated pair of metric registers: predecessors `2j` and
    /// `2j + 1` of the radix-2 butterfly.
    const IDX_EV: [u16; HALF] = {
        let mut t = [0u16; HALF];
        let mut j = 0;
        while j < HALF {
            t[j] = 2 * j as u16;
            j += 1;
        }
        t
    };
    const IDX_OD: [u16; HALF] = {
        let mut t = [0u16; HALF];
        let mut j = 0;
        while j < HALF {
            t[j] = 2 * j as u16 + 1;
            j += 1;
        }
        t
    };

    /// Runs the full ACS recursion, one packed survivor word per step.
    /// Identical arithmetic to [`acs_step_packed`](super::acs_step_packed):
    /// unsigned u16 adds, `b < a` winner selection (`min_epu16` plus the
    /// compare mask), so the survivor words are bit-identical.
    pub(super) fn acs_run(classes: &[u8], survivor: &mut [u64]) {
        // SAFETY: the module's `cfg` gate means avx512bw is statically
        // enabled wherever this compiles; the raw-pointer loads read
        // in-bounds, properly initialized `[u16; 32]` arrays.
        unsafe {
            let idx_ev = _mm512_loadu_si512(IDX_EV.as_ptr().cast());
            let idx_od = _mm512_loadu_si512(IDX_OD.as_ptr().cast());
            let mut init = [INF; STATES];
            init[0] = 0;
            let mut m0 = _mm512_loadu_si512(init.as_ptr().cast());
            let mut m1 = _mm512_loadu_si512(init.as_ptr().add(HALF).cast());
            for (t, &cls) in classes.iter().enumerate() {
                let c = &COST_SOA[(cls as usize) % 9];
                let ev = _mm512_permutex2var_epi16(m0, idx_ev, m1);
                let od = _mm512_permutex2var_epi16(m0, idx_od, m1);
                let a0 = _mm512_add_epi16(ev, _mm512_loadu_si512(c[0].as_ptr().cast()));
                let b0 = _mm512_add_epi16(od, _mm512_loadu_si512(c[1].as_ptr().cast()));
                let k0 = _mm512_cmplt_epu16_mask(b0, a0);
                m0 = _mm512_min_epu16(a0, b0);
                let a1 = _mm512_add_epi16(ev, _mm512_loadu_si512(c[2].as_ptr().cast()));
                let b1 = _mm512_add_epi16(od, _mm512_loadu_si512(c[3].as_ptr().cast()));
                let k1 = _mm512_cmplt_epu16_mask(b1, a1);
                m1 = _mm512_min_epu16(a1, b1);
                survivor[t] = (k0 as u64) | ((k1 as u64) << HALF);
            }
        }
    }
}

/// The retained state-major scalar decoder — the oracle the lane-shaped
/// [`viterbi_decode_into`] is pinned against (the `interference_graph_brute`
/// of this crate: never called on hot paths, kept so equivalence tests and
/// benches have an independent reference implementation).
///
/// Walks the same successor-first trellis with interleaved metrics, a
/// per-call expanded cost table and one survivor byte per (step, state);
/// tie-breaking is the classic lower-predecessor-wins rule.
pub fn viterbi_decode_scalar(pairs: &[(Option<bool>, Option<bool>)], info_len: usize) -> Vec<bool> {
    assert_eq!(
        pairs.len(),
        info_len + TAIL_BITS,
        "trellis length must be info_len + tail"
    );
    let n = pairs.len();
    assert!(
        n < (INF as usize - 16) / 2,
        "trellis too long for u16 metrics"
    );

    let mut survivor = vec![0u8; n * STATES];
    let mut metric = [INF; STATES];
    let mut next_metric = [INF; STATES];
    metric[0] = 0;

    // A received (possibly erased) pair takes one of 3 × 3 values; for
    // each, cost[4j + i] is the branch metric of predecessor 2j (i ∈
    // {0,1}: input bit) and predecessor 2j+1 (i ∈ {2,3}).
    let mut cost_tables = [[0u16; 2 * STATES]; 9];
    for (v, table) in cost_tables.iter_mut().enumerate() {
        let (va, vb) = (v / 3, v % 3);
        let mut bm = [0u16; 4];
        for (out, slot) in bm.iter_mut().enumerate() {
            let mut m = 0;
            if va != 0 && (va == 2) != (out & 1 == 1) {
                m += 1;
            }
            if vb != 0 && (vb == 2) != (out & 2 == 2) {
                m += 1;
            }
            *slot = m;
        }
        for (c, &o) in table.iter_mut().zip(BRANCH_OUT.iter()) {
            *c = bm[o as usize];
        }
    }

    for (t, &(ra, rb)) in pairs.iter().enumerate() {
        let cost = &cost_tables[3 * sym(ra) + sym(rb)];
        let (row_lo, row_hi) = survivor[t * STATES..(t + 1) * STATES].split_at_mut(STATES / 2);
        for j in 0..STATES / 2 {
            let a = metric[2 * j];
            let b = metric[2 * j + 1];
            // Successor j (input 0) and successor j+32 (input 1).
            let (a0, b0) = (a + cost[4 * j], b + cost[4 * j + 2]);
            let (a1, b1) = (a + cost[4 * j + 1], b + cost[4 * j + 3]);
            let take0 = b0 < a0;
            let take1 = b1 < a1;
            next_metric[j] = if take0 { b0 } else { a0 };
            next_metric[j + 32] = if take1 { b1 } else { a1 };
            row_lo[j] = take0 as u8;
            row_hi[j] = take1 as u8;
        }
        std::mem::swap(&mut metric, &mut next_metric);
    }

    let mut state = 0usize;
    let mut decoded = vec![false; n];
    for t in (0..n).rev() {
        decoded[t] = state >> 5 != 0;
        state = ((state & 31) << 1) | survivor[t * STATES + state] as usize;
    }
    decoded.truncate(info_len);
    decoded
}

/// Convenience codec wrapping encode → puncture and depuncture → decode for
/// one packet at a configured rate.
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    /// Operating code rate.
    pub rate: CodeRate,
}

impl Codec {
    /// Creates a codec at the given rate.
    pub fn new(rate: CodeRate) -> Codec {
        Codec { rate }
    }

    /// Encodes and punctures an information-bit packet.
    pub fn encode(&self, info: &[bool]) -> Vec<bool> {
        puncture(&encode(info), self.rate)
    }

    /// Allocation-free [`Codec::encode`]: the mother-coded stream lands in
    /// `mother` scratch (bypassed entirely at rate 1/2, where puncturing is
    /// the identity) and the punctured output in `out`.
    pub fn encode_into(&self, info: &[bool], mother: &mut Vec<bool>, out: &mut Vec<bool>) {
        if self.rate == CodeRate::R12 {
            encode_into(info, out);
            return;
        }
        encode_into(info, mother);
        puncture_into(mother, self.rate, out);
    }

    /// Number of coded (post-puncturing) bits produced for `info_len`
    /// information bits.
    pub fn coded_len(&self, info_len: usize) -> usize {
        let (pa, pb) = puncture_pattern(self.rate);
        let period = pa.len();
        let n_pairs = info_len + TAIL_BITS;
        let mut count = 0;
        for i in 0..n_pairs {
            let slot = i % period;
            count += pa[slot] as usize + pb[slot] as usize;
        }
        count
    }

    /// Depunctures and Viterbi-decodes a received coded stream back to
    /// `info_len` information bits.
    pub fn decode(&self, rx: &[bool], info_len: usize) -> Vec<bool> {
        let pairs = depuncture(rx, self.rate, info_len + TAIL_BITS);
        viterbi_decode(&pairs, info_len)
    }

    /// Allocation-free [`Codec::decode`]: depunctured symbol classes,
    /// survivor memory (one packed `u64` per trellis step) and the decoded
    /// output all live in caller scratch. Routes through
    /// [`depuncture_classes_into`] + [`viterbi_classes_into`] — decoded
    /// output bit-identical to [`Codec::decode`], which goes through the
    /// `(Option, Option)` pair representation.
    pub fn decode_into(
        &self,
        rx: &[bool],
        info_len: usize,
        classes: &mut Vec<u8>,
        survivor: &mut Vec<u64>,
        out: &mut Vec<bool>,
    ) {
        depuncture_classes_into(rx, self.rate, info_len + TAIL_BITS, classes);
        viterbi_classes_into(classes, info_len, survivor, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn branch_lut_matches_the_step_function() {
        for state in 0..STATES {
            for (input, bit) in [(0usize, false), (1, true)] {
                let (a, b, next) = step(state as u32, bit);
                let out = BRANCH_OUT[2 * state + input];
                assert_eq!(out & 1 == 1, a, "state {state} input {input}: A");
                assert_eq!(out & 2 == 2, b, "state {state} input {input}: B");
                assert_eq!(next_state(state, input), next as usize);
            }
        }
    }

    #[test]
    fn encoder_output_length() {
        let coded = encode(&[true; 10]);
        assert_eq!(coded.len(), 2 * (10 + TAIL_BITS));
    }

    #[test]
    fn encoder_known_vector() {
        // All-zero input stays all-zero (linear code).
        let coded = encode(&[false; 8]);
        assert!(coded.iter().all(|b| !b));
        // A single 1 produces the generator impulse response: the two
        // polynomials read MSB-first as the bit leaves the window.
        let coded = encode(&[true, false, false, false, false, false, false]);
        let a: Vec<bool> = coded.iter().step_by(2).copied().collect();
        let b: Vec<bool> = coded.iter().skip(1).step_by(2).copied().collect();
        // impulse response = taps of G as the bit shifts through; weight of
        // the joint response must equal the code's free distance pair count
        // for a single-bit message: weight(G0) + weight(G1) = 5 + 5 = 10.
        let weight: usize = a.iter().chain(b.iter()).map(|&x| x as usize).sum();
        assert_eq!(weight, 10); // dfree of the K=7 (133,171) code
    }

    #[test]
    fn clean_roundtrip_all_rates() {
        for rate in CodeRate::ALL {
            let info = random_bits(240, 5);
            let codec = Codec::new(rate);
            let tx = codec.encode(&info);
            assert_eq!(tx.len(), codec.coded_len(info.len()));
            let decoded = codec.decode(&tx, info.len());
            assert_eq!(decoded, info, "{rate:?}");
        }
    }

    #[test]
    fn coded_len_matches_rate() {
        let codec = Codec::new(CodeRate::R34);
        // rate 3/4: 3 info bits → 4 coded bits. With 300+6 pairs → 408.
        assert_eq!(codec.coded_len(300), 408);
        let half = Codec::new(CodeRate::R12);
        assert_eq!(half.coded_len(300), 612);
    }

    #[test]
    fn corrects_scattered_errors_rate_half() {
        let info = random_bits(300, 9);
        let codec = Codec::new(CodeRate::R12);
        let mut tx = codec.encode(&info);
        // Flip well-separated bits — within the code's correction power.
        for idx in [10, 100, 250, 400, 550] {
            tx[idx] = !tx[idx];
        }
        assert_eq!(codec.decode(&tx, info.len()), info);
    }

    #[test]
    fn corrects_errors_at_all_punctured_rates() {
        for rate in CodeRate::ALL {
            let info = random_bits(300, 13);
            let codec = Codec::new(rate);
            let mut tx = codec.encode(&info);
            let stride = tx.len() / 3;
            tx[stride] = !tx[stride];
            tx[2 * stride] = !tx[2 * stride];
            assert_eq!(codec.decode(&tx, info.len()), info, "{rate:?}");
        }
    }

    #[test]
    fn weaker_codes_break_earlier_under_noise() {
        // Monte-Carlo: at a fixed channel BER, post-decode error counts
        // should (weakly) increase with code rate — mirroring the analytic
        // ordering in acorn-phy::coding.
        let mut rng = StdRng::seed_from_u64(77);
        let p_flip = 0.04;
        let mut errors_by_rate = Vec::new();
        for rate in CodeRate::ALL {
            let codec = Codec::new(rate);
            let mut errors = 0usize;
            for trial in 0..30 {
                let info = random_bits(400, 1000 + trial);
                let mut tx = codec.encode(&info);
                for b in tx.iter_mut() {
                    if rng.gen_bool(p_flip) {
                        *b = !*b;
                    }
                }
                let decoded = codec.decode(&tx, info.len());
                errors += decoded.iter().zip(&info).filter(|(a, b)| a != b).count();
            }
            errors_by_rate.push(errors);
        }
        assert!(
            errors_by_rate[0] <= errors_by_rate[2] && errors_by_rate[0] <= errors_by_rate[3],
            "{errors_by_rate:?}"
        );
        assert!(
            *errors_by_rate.last().unwrap() > 0,
            "rate 5/6 should show errors at 4% channel BER: {errors_by_rate:?}"
        );
    }

    #[test]
    fn lane_decoder_matches_scalar_oracle_under_noise() {
        // The deeper random-pattern sweep lives in the kernel-equivalence
        // proptests; this pins the basic contract in the unit suite.
        let mut rng = StdRng::seed_from_u64(4242);
        for rate in CodeRate::ALL {
            let codec = Codec::new(rate);
            for trial in 0..10 {
                let info = random_bits(180, 900 + trial);
                let mut tx = codec.encode(&info);
                for b in tx.iter_mut() {
                    if rng.gen_bool(0.05) {
                        *b = !*b;
                    }
                }
                let pairs = depuncture(&tx, rate, info.len() + TAIL_BITS);
                assert_eq!(
                    viterbi_decode(&pairs, info.len()),
                    viterbi_decode_scalar(&pairs, info.len()),
                    "{rate:?} trial {trial}"
                );
            }
        }
    }

    #[test]
    fn lane_decoder_matches_scalar_oracle_on_pure_erasures() {
        // Degenerate inputs: every pair fully or half erased.
        for n_pairs in [TAIL_BITS, 20, 63] {
            let info_len = n_pairs - TAIL_BITS;
            for pattern in 0..3usize {
                let pairs: Vec<(Option<bool>, Option<bool>)> = (0..n_pairs)
                    .map(|i| match pattern {
                        0 => (None, None),
                        1 => (Some(i % 3 == 0), None),
                        _ => (None, Some(i % 2 == 0)),
                    })
                    .collect();
                assert_eq!(
                    viterbi_decode(&pairs, info_len),
                    viterbi_decode_scalar(&pairs, info_len),
                    "n_pairs {n_pairs} pattern {pattern}"
                );
            }
        }
    }

    #[test]
    fn survivor_scratch_reuse_never_changes_the_answer() {
        // A long noisy trellis followed by a short clean one on the same
        // scratch: stale packed words beyond the short trellis must never
        // be read.
        let codec = Codec::new(CodeRate::R12);
        let mut survivor = Vec::new();
        let mut decoded = Vec::new();
        let long = random_bits(400, 31);
        let tx = codec.encode(&long);
        let pairs = depuncture(&tx, codec.rate, long.len() + TAIL_BITS);
        viterbi_decode_into(&pairs, long.len(), &mut survivor, &mut decoded);
        assert_eq!(decoded, long);

        let short = random_bits(40, 32);
        let tx = codec.encode(&short);
        let pairs = depuncture(&tx, codec.rate, short.len() + TAIL_BITS);
        viterbi_decode_into(&pairs, short.len(), &mut survivor, &mut decoded);
        assert_eq!(decoded, short);
    }

    #[test]
    fn depuncture_erasure_positions() {
        let pairs = depuncture(&[true, true, false], CodeRate::R34, 3);
        // Pattern: (A1 B1) (A2 −) (− B3)
        assert_eq!(pairs[0], (Some(true), Some(true)));
        assert_eq!(pairs[1], (Some(false), None));
        assert_eq!(pairs[2], (None, None)); // rx exhausted → erasures
    }

    #[test]
    fn puncture_depuncture_roundtrip_structure() {
        for rate in CodeRate::ALL {
            let info = random_bits(60, 21);
            let coded = encode(&info);
            let punctured = puncture(&coded, rate);
            let pairs = depuncture(&punctured, rate, info.len() + TAIL_BITS);
            // Every Some() must match the original coded bit.
            for (i, (a, b)) in pairs.iter().enumerate() {
                if let Some(x) = a {
                    assert_eq!(*x, coded[2 * i], "{rate:?} A{i}");
                }
                if let Some(x) = b {
                    assert_eq!(*x, coded[2 * i + 1], "{rate:?} B{i}");
                }
            }
        }
    }
}
