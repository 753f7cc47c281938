//! Algorithm 1 — ACORN's network-aware user association.
//!
//! A newly arriving client `u` with candidate AP set `A_u` computes, for
//! every candidate `i`:
//!
//! ```text
//! X_{w,u}^i  = M_i / ATD_i            (per-client throughput with u)
//! X_{wo,u}^i = M_i / (ATD_i − d_u^i)  (per-client throughput without u)
//!
//! U_assoc(u, i) = K_i·X_{w,u}^i + Σ_{j ∈ A_u, j≠i} (K_j − 1)·X_{wo,u}^j
//! ```
//!
//! and associates with the argmax. The utility is the predicted *total
//! network throughput* if `u` joins cell `i`: the first term is cell `i`'s
//! aggregate including `u`; each remaining term is cell `j`'s aggregate
//! after `u` declines it. The effect (§4.1): a poor client gravitates to
//! an AP already serving similar-quality clients, minimizing the
//! network-wide damage of the 802.11 performance anomaly, while good
//! clients simply pick their best AP.
//!
//! All quantities come out of the modified beacons plus the client's own
//! probed delay `d_u^i`, exactly as the paper's Click implementation does.
//!
//! ## NaN policy
//!
//! Fault injection can push NaN measurements into the beacon fields, and
//! a NaN can survive into a utility (e.g. a NaN `M_i` multiplied by a
//! zero client count is still NaN). The argmax therefore runs under a
//! documented deterministic policy, [`screen_score`]: a NaN score is
//! **least preferred** (screened to `-∞`) and counted, comparison uses
//! `f64::total_cmp` (a total order — no `partial_cmp` escape hatch), and
//! ties keep the earliest candidate. When *every* score is NaN the
//! choice degrades to the earliest candidate rather than becoming
//! candidate-order-dependent, which is what the old
//! `partial_cmp(..).unwrap_or(Equal)` comparator silently was.

use acorn_obs::{names, Sink};
use acorn_topology::ApId;
use std::cmp::Ordering;

/// Everything the client knows about one candidate AP after probing it:
/// the beacon contents *with the client provisionally counted in*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate AP.
    pub ap: ApId,
    /// `K_i` — number of associated clients *including u*.
    pub k_including_u: usize,
    /// `M_i` — the AP's channel-access share.
    pub access_share: f64,
    /// `ATD_i` — aggregate transmission delay *including u's delay*
    /// (seconds).
    pub atd_including_u_s: f64,
    /// `d_u^i` — u's own delivery delay at this AP (seconds).
    pub delay_u_s: f64,
}

impl Candidate {
    /// `X_{w,u}` — per-client throughput with u associated, in packets/s
    /// (the payload factor is common to all terms and cancels in the
    /// argmax).
    pub fn x_with(&self) -> f64 {
        safe_div(self.access_share, self.atd_including_u_s)
    }

    /// `X_{wo,u}` — per-client throughput without u.
    pub fn x_without(&self) -> f64 {
        safe_div(self.access_share, self.atd_including_u_s - self.delay_u_s)
    }

    /// The cell's term of `U_assoc` when it is the choice: its aggregate
    /// with u, `K·X_{w,u}`.
    fn with_term(&self) -> f64 {
        self.k_including_u as f64 * self.x_with()
    }

    /// The cell's term of `U_assoc` when u declines it: its aggregate
    /// without u. `K` includes u by definition, so the cell then serves
    /// `K − 1` clients.
    fn without_term(&self) -> f64 {
        (self.k_including_u.saturating_sub(1)) as f64 * self.x_without()
    }
}

fn safe_div(num: f64, den: f64) -> f64 {
    if den.is_finite() && den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Evaluates `U_assoc(u, i)` for `choice` being an index into
/// `candidates` (Eq. 4).
pub fn utility(candidates: &[Candidate], choice: usize) -> f64 {
    let mut u = 0.0;
    for (j, cand) in candidates.iter().enumerate() {
        u += if j == choice {
            cand.with_term()
        } else {
            cand.without_term()
        };
    }
    u
}

/// [`utility`] from every candidate's `(with_term, without_term)`,
/// summed in the same order.
fn utility_of(terms: &[(f64, f64)], choice: usize) -> f64 {
    let mut u = 0.0;
    for (j, &(with, without)) in terms.iter().enumerate() {
        u += if j == choice { with } else { without };
    }
    u
}

/// The association NaN policy: a NaN score is least preferred. Screens
/// NaN to `-∞` (every real score, including `-∞` itself, then orders at
/// or above it under `total_cmp`, and an all-NaN field degrades to the
/// earliest candidate); anything else passes through untouched.
#[inline]
pub fn screen_score(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score
    }
}

/// Single-pass argmax under the NaN policy: scores are screened through
/// [`screen_score`], compared with `f64::total_cmp`, and the incumbent
/// is replaced only on a *strictly greater* score — so the earliest
/// maximal candidate wins every tie by construction (no `max_by`
/// last-maximal subtlety to invert).
fn argmax(scores: impl IntoIterator<Item = f64>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, raw) in scores.into_iter().enumerate() {
        let s = screen_score(raw);
        match best {
            Some((_, b)) if s.total_cmp(&b) != Ordering::Greater => {}
            _ => best = Some((i, s)),
        }
    }
    best.map(|(i, _)| i)
}

/// Reports one choice over `n` candidates, `nans` of them NaN-scored.
fn record<S: Sink>(sink: &S, n: usize, nans: usize) {
    if sink.enabled() {
        sink.inc(names::ASSOC_CHOICES);
        sink.add(names::ASSOC_CANDIDATES, n as u64);
        sink.add(names::ASSOC_NAN_UTILITIES, nans as u64);
    }
}

/// [`argmax`] over `score(0..n)`, reported through [`record`].
fn choose_by_score<S: Sink>(
    n: usize,
    sink: &S,
    mut score: impl FnMut(usize) -> f64,
) -> Option<usize> {
    let mut nans = 0;
    let best = argmax((0..n).map(|i| {
        let s = score(i);
        nans += usize::from(s.is_nan());
        s
    }));
    record(sink, n, nans);
    best
}

/// Algorithm 1: returns the index of the utility-maximizing candidate, or
/// `None` for an empty candidate set. Ties break toward the earlier
/// candidate (stable); NaN utilities follow the module-level NaN policy.
/// Reports `assoc.choices`, `assoc.candidates` and `assoc.nan_utilities`
/// counters into `sink`.
pub fn choose_ap<S: Sink>(candidates: &[Candidate], sink: &S) -> Option<usize> {
    choose_by_score(candidates.len(), sink, |i| utility(candidates, i))
}

/// [`choose_ap`] for a candidate set whose empty cells
/// (`k_including_u == 1`) may carry a lower bound on u's delay in place
/// of its searched one, in both `delay_u_s` and `atd_including_u_s`.
/// `search` returns such a candidate's searched delay; it runs only for
/// an empty cell whose bound comes out on top of the ranking, which then
/// takes the searched utility and runs again. The choice, the chosen
/// candidate's fields and the `assoc.*` counters are those of
/// [`choose_ap`] on the searched set.
///
/// Why a bound is as good as a search until it comes out on top:
/// * **An empty cell's without-u term is exactly 0.0, whatever its
///   delay.** Its ATD without u is zero, so `x_without` divides by
///   `d − d`, which is 0 or NaN, and gets 0.0 from the guarded division;
///   `K − 1 = 0` times 0.0 is 0.0. A bound moves no other candidate's
///   utility.
/// * **Its utility at the bound is an upper bound, bit for bit.** Its own
///   term `1·x_with` is `M/d` for a finite `d > 0` and 0.0 otherwise; with
///   `M ≥ 0` that can only fall as `d` grows, and float division and
///   addition are monotone, so the sum with the bound is at least the
///   searched sum.
/// * **A skipped candidate's utility cannot be NaN unless its bound is.**
///   With every share `≥ 0`, every term is a number `≥ 0` (possibly
///   `+∞`) or NaN, so no partial sum meets `+∞ − ∞`; the two sums differ
///   only in the candidate's own term, a number either way, so one is NaN
///   exactly when the other is. `assoc.nan_utilities` counts the same,
///   and the screened bound orders at or above the screened utility.
/// * **The ranking keeps the earliest maximum**, so a candidate that does
///   not come out on top with its bound would not with its utility.
///
/// A negative or NaN share voids the argument: such a set is searched in
/// full before it is ranked.
pub fn choose_ap_bounded<S: Sink>(
    candidates: &mut [Candidate],
    mut search: impl FnMut(&Candidate) -> f64,
    sink: &S,
) -> Option<usize> {
    let mut bounded: Vec<bool> = candidates.iter().map(|c| c.k_including_u == 1).collect();
    let mut settle = |c: &mut Candidate, bounded: &mut bool| {
        debug_assert_eq!(
            c.atd_including_u_s.to_bits(),
            c.delay_u_s.to_bits(),
            "an empty cell's ATD is u's delay"
        );
        let d = search(c);
        (c.delay_u_s, c.atd_including_u_s, *bounded) = (d, d, false);
    };
    if candidates
        .iter()
        .any(|c| c.access_share.is_nan() || c.access_share < 0.0)
    {
        for (c, b) in candidates.iter_mut().zip(&mut bounded).filter(|(_, b)| **b) {
            settle(c, b);
        }
    }
    let mut terms: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| (c.with_term(), c.without_term()))
        .collect();
    let mut scores: Vec<f64> = (0..terms.len()).map(|i| utility_of(&terms, i)).collect();
    let best = loop {
        match argmax(scores.iter().copied()) {
            Some(i) if bounded[i] => {
                settle(&mut candidates[i], &mut bounded[i]);
                // Its without-u term is 0.0 either way.
                terms[i].0 = candidates[i].with_term();
                scores[i] = utility_of(&terms, i);
            }
            best => break best,
        }
    };
    record(
        sink,
        scores.len(),
        scores.iter().filter(|s| s.is_nan()).count(),
    );
    best
}

/// Greedy/selfish baseline for comparison and ablations: pick the AP
/// maximizing only u's own throughput `X_{w,u}` — ignoring collateral
/// damage to neighbouring cells. Same tie-break, NaN policy and counters
/// as [`choose_ap`].
pub fn choose_ap_selfish<S: Sink>(candidates: &[Candidate], sink: &S) -> Option<usize> {
    choose_by_score(candidates.len(), sink, |i| candidates[i].x_with())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_obs::{NullSink, RecordingSink};

    fn cand(ap: usize, k: usize, m: f64, atd: f64, du: f64) -> Candidate {
        Candidate {
            ap: ApId(ap),
            k_including_u: k,
            access_share: m,
            atd_including_u_s: atd,
            delay_u_s: du,
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert_eq!(choose_ap(&[], &NullSink), None);
        assert_eq!(choose_ap_selfish(&[], &NullSink), None);
    }

    #[test]
    fn single_candidate_is_chosen() {
        let c = [cand(0, 1, 1.0, 0.01, 0.01)];
        assert_eq!(choose_ap(&c, &NullSink), Some(0));
    }

    #[test]
    fn x_terms_match_definitions() {
        let c = cand(0, 3, 0.5, 0.030, 0.010);
        assert!((c.x_with() - 0.5 / 0.030).abs() < 1e-9);
        assert!((c.x_without() - 0.5 / 0.020).abs() < 1e-9);
    }

    #[test]
    fn degenerate_delays_are_safe() {
        // u is the only client and its delay equals ATD → "without u" the
        // cell is empty; the term must be 0, not ∞.
        let c = cand(0, 1, 1.0, 0.02, 0.02);
        assert_eq!(c.x_without(), 0.0);
        // Dead link: infinite ATD → both terms zero.
        let dead = cand(0, 2, 1.0, f64::INFINITY, f64::INFINITY);
        assert_eq!(dead.x_with(), 0.0);
        assert_eq!(dead.x_without(), 0.0);
    }

    #[test]
    fn poor_client_joins_the_poor_cell() {
        // AP 0 serves two good clients (small delays); AP 1 serves two
        // poor clients (large delays). A poor arriving client u (large
        // delay at both) must pick AP 1: joining AP 0 would wreck two good
        // clients' throughput via the anomaly.
        let d_good = 0.002; // 2 ms per delivered packet
        let d_poor = 0.020;
        let c = [
            cand(0, 3, 1.0, 2.0 * d_good + d_poor, d_poor),
            cand(1, 3, 1.0, 2.0 * d_poor + d_poor, d_poor),
        ];
        assert_eq!(choose_ap(&c, &NullSink), Some(1));
        // The selfish rule picks AP 0 (better personal throughput) —
        // exactly the failure mode ACORN's utility avoids.
        assert_eq!(choose_ap_selfish(&c, &NullSink), Some(0));
    }

    #[test]
    fn good_client_joins_its_best_ap() {
        // A good client picks the AP where it (and the network) does best;
        // with identical neighbours that is the one with the smaller ATD.
        let d_u = 0.002;
        let c = [
            cand(0, 2, 1.0, 0.004 + d_u, d_u), // one good client + u
            cand(1, 2, 1.0, 0.020 + d_u, d_u), // one poor client + u
        ];
        assert_eq!(choose_ap(&c, &NullSink), Some(0));
    }

    #[test]
    fn contended_ap_is_less_attractive() {
        // u would be the only client of either AP; AP 1 only has half the
        // medium, so the uncontended AP 0 wins.
        let d = 0.004;
        let c = [cand(0, 1, 1.0, d, d), cand(1, 1, 0.5, d, d)];
        assert!(utility(&c, 0) > utility(&c, 1));
        assert_eq!(choose_ap(&c, &NullSink), Some(0));
    }

    #[test]
    fn utility_is_total_network_throughput_shaped() {
        // Utility of choosing i must equal cell i's aggregate with u plus
        // the other cells' aggregates without u.
        let c = [cand(0, 2, 1.0, 0.010, 0.004), cand(1, 4, 0.5, 0.040, 0.010)];
        let u0 = utility(&c, 0);
        let manual = 2.0 * (1.0 / 0.010) + 3.0 * (0.5 / 0.030);
        assert!((u0 - manual).abs() < 1e-9);
    }

    #[test]
    fn ties_break_stably() {
        let d = 0.005;
        let c = [cand(7, 2, 1.0, 2.0 * d, d), cand(9, 2, 1.0, 2.0 * d, d)];
        assert_eq!(choose_ap(&c, &NullSink), Some(0));
    }

    #[test]
    fn all_nan_utilities_degrade_to_earliest_candidate() {
        // A NaN access share poisons every utility (its cell contributes
        // a `(K−1) · NaN = NaN` term to the other choices too), which is
        // the realistic fault-injection shape. The policy pins the winner
        // to the earliest candidate instead of leaving it
        // order-dependent.
        let nan = cand(3, 2, f64::NAN, 0.02, 0.01);
        let ok = cand(5, 2, 1.0, 0.02, 0.01);
        assert!(utility(&[nan, ok], 0).is_nan());
        assert!(utility(&[nan, ok], 1).is_nan());
        assert_eq!(choose_ap(&[nan, ok], &NullSink), Some(0));
        assert_eq!(choose_ap(&[ok, nan], &NullSink), Some(0));
    }

    #[test]
    fn selfish_rule_never_picks_a_nan_score_over_a_real_one() {
        // The selfish score is per-candidate, so a NaN can be isolated:
        // it must lose to any real score, whatever the candidate order.
        let nan = cand(3, 1, f64::NAN, 0.01, 0.01);
        let ok = cand(5, 1, 1.0, 0.01, 0.01);
        assert_eq!(choose_ap_selfish(&[nan, ok], &NullSink), Some(1));
        assert_eq!(choose_ap_selfish(&[ok, nan], &NullSink), Some(0));
    }

    #[test]
    fn screen_score_policy_shape() {
        assert_eq!(screen_score(f64::NAN), f64::NEG_INFINITY);
        assert_eq!(screen_score(1.5), 1.5);
        assert_eq!(screen_score(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn sink_counts_choices_candidates_and_nans() {
        let sink = RecordingSink::new();
        let nan = cand(3, 1, f64::NAN, 0.01, 0.01);
        let ok = cand(5, 1, 1.0, 0.01, 0.01);
        choose_ap_selfish(&[nan, ok], &sink);
        choose_ap(&[ok], &sink);
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(names::ASSOC_CHOICES), 2);
            assert_eq!(t.counter(names::ASSOC_CANDIDATES), 3);
            assert_eq!(t.counter(names::ASSOC_NAN_UTILITIES), 1);
        });
    }

    #[test]
    fn recording_does_not_change_the_choice() {
        let sink = RecordingSink::new();
        let cases = [
            vec![],
            vec![cand(0, 1, 1.0, 0.01, 0.01)],
            vec![cand(0, 2, 1.0, 0.01, 0.002), cand(1, 3, 0.5, 0.04, 0.01)],
            vec![
                cand(0, 1, f64::NAN, 0.01, 0.01),
                cand(1, 1, 1.0, 0.01, 0.01),
            ],
        ];
        for c in &cases {
            assert_eq!(choose_ap(c, &NullSink), choose_ap(c, &sink));
            assert_eq!(choose_ap_selfish(c, &NullSink), choose_ap_selfish(c, &sink));
        }
    }
}
