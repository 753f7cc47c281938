//! The paper's main comparison baseline — "\[17\]" (Kauffmann et al.,
//! INFOCOM 2007) as modified in §5.2.
//!
//! "Each client performs user association ... \[per\] the algorithm
//! described in \[17\]. The APs then perform channel selection ... \[per\] a
//! modified version of \[17\]. We modify the frequency selection algorithm
//! in \[17\] to implement a greedy strategy where APs aggressively use the
//! (single width) 40 MHz channels. Specifically, they scan 40 MHz channels
//! and select the one that minimizes the total noise and interference."
//!
//! The association half is the "selfish" rule — the client minimizes its
//! own transmission delay, blind to collateral anomaly damage in other
//! cells — which is [`acorn_core::choose_ap_selfish`]; this module holds
//! the channel-selection half.
//!
//! Because \[17\] is CB-agnostic (designed for a single channel width), this
//! baseline bonds *everywhere* — precisely the behaviour ACORN's
//! measurements show to be harmful on poor links and in dense deployments.

use acorn_topology::{ApId, ChannelAssignment, ChannelPlan, InterferenceGraph, Wlan};

/// Greedy aggressive-CB channel selection: every AP takes the legal
/// 40 MHz bond that minimizes interference, measured as the number of
/// interference-graph neighbours already occupying an overlapping channel
/// (ties broken by received interference power when provided).
///
/// APs decide in index order and iterate until a fixed point (at most
/// `max_sweeps` sweeps), mirroring the distributed best-response dynamics
/// of the Gibbs-sampler original.
pub fn allocate_aggressive_cb(
    wlan: &Wlan,
    graph: &InterferenceGraph,
    plan: &ChannelPlan,
    max_sweeps: usize,
) -> Vec<ChannelAssignment> {
    let bonds: Vec<ChannelAssignment> = plan.bonds().collect();
    assert!(!bonds.is_empty(), "plan has no legal 40 MHz bond");
    let n = graph.len();
    let mut assignments: Vec<ChannelAssignment> = (0..n).map(|i| bonds[i % bonds.len()]).collect();

    for _ in 0..max_sweeps.max(1) {
        let mut changed = false;
        for i in 0..n {
            let ap = ApId(i);
            let mut best = assignments[i];
            let mut best_cost = f64::INFINITY;
            for &b in &bonds {
                // Cost: count of conflicting neighbours, with aggregate
                // received power as tiebreaker (the "total noise and
                // interference" scan).
                let mut conflicts = 0usize;
                let mut power_mw = 0.0f64;
                for nb in graph.neighbors(ap) {
                    if assignments[nb.0].conflicts(b) {
                        conflicts += 1;
                        power_mw += 10f64.powf(wlan.ap_to_ap_rx_dbm(nb, ap) / 10.0);
                    }
                }
                let cost = conflicts as f64 * 1e6 + power_mw;
                if cost < best_cost {
                    best_cost = cost;
                    best = b;
                }
            }
            if best != assignments[i] {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    assignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::association::{choose_ap_selfish, Candidate};
    use acorn_core::NullSink;
    use acorn_phy::ChannelWidth;
    use acorn_topology::Point;

    fn wlan(n_aps: usize) -> Wlan {
        let aps = (0..n_aps)
            .map(|i| Point::new(30.0 * i as f64, 0.0))
            .collect();
        let mut w = Wlan::new(aps, vec![], 5);
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    #[test]
    fn everyone_ends_up_bonded() {
        let w = wlan(4);
        let g = w.ap_only_interference_graph();
        let a = allocate_aggressive_cb(&w, &g, &ChannelPlan::full_5ghz(), 8);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|x| x.width() == ChannelWidth::Ht40));
    }

    #[test]
    fn neighbours_avoid_each_other_when_bonds_suffice() {
        // 3 APs, 6 channels → 3 disjoint bonds exist; the greedy should
        // find a conflict-free bonding.
        let w = wlan(3);
        let g = w.ap_only_interference_graph();
        let a = allocate_aggressive_cb(&w, &g, &ChannelPlan::restricted(6), 8);
        for i in 0..3 {
            for j in i + 1..3 {
                if g.interferes(ApId(i), ApId(j)) {
                    assert!(!a[i].conflicts(a[j]), "{a:?}");
                }
            }
        }
    }

    #[test]
    fn scarce_bonds_force_overlap() {
        // 3 mutually interfering APs but only 4 channels (2 bonds): at
        // least two APs must share — the Fig. 11 pathology.
        let w = wlan(3);
        let mut g = InterferenceGraph::complete(3);
        let a = allocate_aggressive_cb(&w, &g, &ChannelPlan::restricted(4), 8);
        let mut any_conflict = false;
        for i in 0..3 {
            for j in i + 1..3 {
                any_conflict |= a[i].conflicts(a[j]);
            }
        }
        assert!(any_conflict, "{a:?}");
        g.add_edge(ApId(0), ApId(1)); // keep mut used, idempotent
    }

    #[test]
    fn association_is_selfish() {
        // The [17] rule is the selfish chooser: it picks the best personal
        // throughput even when Eq. 4 would choose otherwise.
        let d_good = 0.002;
        let d_poor = 0.020;
        let cands = [
            Candidate {
                ap: ApId(0),
                k_including_u: 3,
                access_share: 1.0,
                atd_including_u_s: 2.0 * d_good + d_poor,
                delay_u_s: d_poor,
            },
            Candidate {
                ap: ApId(1),
                k_including_u: 3,
                access_share: 1.0,
                atd_including_u_s: 3.0 * d_poor,
                delay_u_s: d_poor,
            },
        ];
        assert_eq!(choose_ap_selfish(&cands, &NullSink), Some(0));
        assert_eq!(
            acorn_core::association::choose_ap(&cands, &NullSink),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "no legal 40 MHz bond")]
    fn single_channel_plan_panics() {
        let w = wlan(1);
        let g = w.ap_only_interference_graph();
        allocate_aggressive_cb(&w, &g, &ChannelPlan::restricted(1), 4);
    }

    #[test]
    fn deterministic() {
        let w = wlan(5);
        let g = w.ap_only_interference_graph();
        let a = allocate_aggressive_cb(&w, &g, &ChannelPlan::full_5ghz(), 8);
        let b = allocate_aggressive_cb(&w, &g, &ChannelPlan::full_5ghz(), 8);
        assert_eq!(a, b);
    }
}
