//! Evaluation runner: scores a full network configuration (channels +
//! association) under a traffic model, analytically or with the DCF
//! simulator.
//!
//! This is the measurement harness of §5.2 in software: given a
//! deployment, a channel assignment and an association, report per-AP and
//! aggregate throughput — for ACORN, for the baselines, and for the
//! random configurations of Table 3, all through the same code path so
//! comparisons are apples-to-apples.

use crate::traffic::{cell_goodput_bps, Traffic};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::access_share;
use acorn_mac::dcf::{simulate_dcf, StationConfig};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ChannelAssignment, ClientId, InterferenceGraph, Wlan};

/// Result of evaluating one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Per-AP cell throughput (bits/s).
    pub per_ap_bps: Vec<f64>,
    /// Aggregate network throughput (bits/s).
    pub total_bps: f64,
}

impl Evaluation {
    fn from_cells(per_ap_bps: Vec<f64>) -> Evaluation {
        let total_bps = per_ap_bps.iter().sum();
        Evaluation {
            per_ap_bps,
            total_bps,
        }
    }
}

/// The MAC operating points of one AP's associated clients at a width.
pub fn cell_links(
    wlan: &Wlan,
    assoc: &[Option<ApId>],
    estimator: &LinkQualityEstimator,
    ap: ApId,
    width: ChannelWidth,
) -> Vec<ClientLink> {
    assoc
        .iter()
        .enumerate()
        .filter(|(_, a)| **a == Some(ap))
        .map(|(c, _)| {
            let snr20 = wlan.snr_db(ap, ClientId(c), ChannelWidth::Ht20);
            let p = estimator.predict(snr20, ChannelWidth::Ht20, width);
            ClientLink::new(p.mcs, p.per, width, estimator.gi)
        })
        .collect()
}

/// Analytic evaluation: anomaly airtime model × contention shares ×
/// traffic model.
pub fn evaluate_analytic(
    wlan: &Wlan,
    assignments: &[ChannelAssignment],
    assoc: &[Option<ApId>],
    estimator: &LinkQualityEstimator,
    payload_bytes: u32,
    traffic: Traffic,
) -> Evaluation {
    assert_eq!(assignments.len(), wlan.aps.len(), "one assignment per AP");
    let graph = wlan.interference_graph(assoc);
    // Per-AP scoring is independent given the frozen assignment; fan it
    // out. Results come back in AP order, so the total is the same float
    // sum as the sequential loop.
    let per_ap = acorn_core::par::par_map_n(wlan.aps.len(), |i| {
        let ap = ApId(i);
        let links = cell_links(wlan, assoc, estimator, ap, assignments[i].width());
        if links.is_empty() {
            return 0.0;
        }
        let airtime = CellAirtime::new(&links, payload_bytes);
        let m = access_share(&graph, assignments, ap);
        cell_goodput_bps(&airtime, &links, m, traffic)
    });
    Evaluation::from_cells(per_ap)
}

/// Partitions APs into contention components: connected components of the
/// graph restricted to edges whose endpoints' assignments spectrally
/// overlap. Each component approximates one collision domain.
pub fn contention_components(
    graph: &InterferenceGraph,
    assignments: &[ChannelAssignment],
) -> Vec<Vec<usize>> {
    let n = graph.len();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        let mut comp = Vec::new();
        seen[start] = true;
        while let Some(i) = stack.pop() {
            comp.push(i);
            for nb in graph.neighbors(ApId(i)) {
                if !seen[nb.0] && assignments[i].conflicts(assignments[nb.0]) {
                    seen[nb.0] = true;
                    stack.push(nb.0);
                }
            }
        }
        comp.sort_unstable();
        components.push(comp);
    }
    components
}

/// DCF-simulated evaluation (saturated UDP only): each contention
/// component becomes one collision domain of the slot-level simulator.
pub fn evaluate_dcf(
    wlan: &Wlan,
    assignments: &[ChannelAssignment],
    assoc: &[Option<ApId>],
    estimator: &LinkQualityEstimator,
    payload_bytes: u32,
    duration_s: f64,
    seed: u64,
) -> Evaluation {
    assert_eq!(assignments.len(), wlan.aps.len(), "one assignment per AP");
    let graph = wlan.interference_graph(assoc);
    let components = contention_components(&graph, assignments);
    // Collision domains are independent simulations, each seeded by its
    // component index (stable: components are discovered in AP order), so
    // they fan out without changing any sample stream.
    let results: Vec<Vec<f64>> = acorn_core::par::par_map_n(components.len(), |ci| {
        let comp = &components[ci];
        let stations: Vec<StationConfig> = comp
            .iter()
            .map(|&i| {
                let links = cell_links(wlan, assoc, estimator, ApId(i), assignments[i].width());
                StationConfig {
                    clients: links,
                    payload_bytes,
                    burst: acorn_mac::timing::BURST,
                }
            })
            .collect();
        let stats = simulate_dcf(&stations, duration_s, seed.wrapping_add(ci as u64));
        stats.iter().map(|s| s.throughput_bps(duration_s)).collect()
    });
    let mut per_ap = vec![0.0f64; wlan.aps.len()];
    for (comp, bps) in components.iter().zip(&results) {
        for (&i, &x) in comp.iter().zip(bps) {
            per_ap[i] = x;
        }
    }
    Evaluation::from_cells(per_ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{fig11, topology1};
    use acorn_topology::{Channel20, ChannelPlan};

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    fn bonded(c: u8) -> ChannelAssignment {
        ChannelAssignment::bonded(Channel20(c)).unwrap()
    }

    fn est() -> LinkQualityEstimator {
        LinkQualityEstimator::default()
    }

    fn natural_assoc(wlan: &Wlan) -> Vec<Option<ApId>> {
        (0..wlan.clients.len())
            .map(|c| {
                (0..wlan.aps.len()).map(ApId).max_by(|&a, &b| {
                    wlan.snr_db(a, ClientId(c), ChannelWidth::Ht20)
                        .total_cmp(&wlan.snr_db(b, ClientId(c), ChannelWidth::Ht20))
                })
            })
            .collect()
    }

    #[test]
    fn topology1_poor_cell_prefers_20mhz() {
        // The Fig. 10a effect: the poor cell's throughput is far higher on
        // a 20 MHz channel than bonded.
        let w = topology1();
        let assoc = natural_assoc(&w);
        let cb = evaluate_analytic(
            &w,
            &[bonded(0), bonded(2)],
            &assoc,
            &est(),
            1500,
            Traffic::Udp,
        );
        let acorn_like = evaluate_analytic(
            &w,
            &[single(0), bonded(2)],
            &assoc,
            &est(),
            1500,
            Traffic::Udp,
        );
        assert!(
            acorn_like.per_ap_bps[0] > 3.0 * cb.per_ap_bps[0],
            "20 MHz {:.3e} vs bonded {:.3e}",
            acorn_like.per_ap_bps[0],
            cb.per_ap_bps[0]
        );
        // The good cell is essentially unaffected.
        assert!((acorn_like.per_ap_bps[1] - cb.per_ap_bps[1]).abs() < 1e-3 * cb.per_ap_bps[1]);
    }

    #[test]
    fn analytic_and_dcf_agree_on_topology1() {
        let w = topology1();
        let assoc = natural_assoc(&w);
        let assignments = [single(0), bonded(2)];
        let a = evaluate_analytic(&w, &assignments, &assoc, &est(), 1500, Traffic::Udp);
        let d = evaluate_dcf(&w, &assignments, &assoc, &est(), 1500, 5.0, 1);
        for i in 0..2 {
            let err = (a.per_ap_bps[i] - d.per_ap_bps[i]).abs() / a.per_ap_bps[i].max(1.0);
            assert!(
                err < 0.1,
                "AP {i}: analytic {:.3e} dcf {:.3e}",
                a.per_ap_bps[i],
                d.per_ap_bps[i]
            );
        }
    }

    #[test]
    fn contention_components_respect_spectrum() {
        let w = fig11();
        let assoc = natural_assoc(&w);
        let graph = w.interference_graph(&assoc);
        // All on one bond: one big component.
        let all40 = vec![bonded(0); 3];
        assert_eq!(contention_components(&graph, &all40).len(), 1);
        // Disjoint: three singleton components.
        let disjoint = vec![single(0), single(1), single(2)];
        assert_eq!(contention_components(&graph, &disjoint).len(), 3);
        // Bond {0,1} + single 1 + single 2: {0,1} then {2}.
        let mixed = vec![bonded(0), single(1), single(2)];
        let comps = contention_components(&graph, &mixed);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![0, 1]));
    }

    #[test]
    fn fig11_aggressive_cb_loses_to_mixed_allocation() {
        // The Fig. 11 comparison: (40,20,20) with the good AP bonded
        // beats all-40 by roughly 2× in aggregate.
        let w = fig11();
        let assoc = natural_assoc(&w);
        let plan = ChannelPlan::restricted(4);
        assert_eq!(plan.bonds().count(), 2);
        let all40 = vec![bonded(0), bonded(2), bonded(0)];
        let acorn_like = vec![bonded(0), single(2), single(3)];
        let y_all40 = evaluate_analytic(&w, &all40, &assoc, &est(), 1500, Traffic::Udp).total_bps;
        let y_acorn =
            evaluate_analytic(&w, &acorn_like, &assoc, &est(), 1500, Traffic::Udp).total_bps;
        assert!(
            y_acorn > 1.5 * y_all40,
            "acorn {:.3e} vs all-40 {:.3e}",
            y_acorn,
            y_all40
        );
    }

    #[test]
    fn tcp_totals_are_below_udp() {
        let w = topology1();
        let assoc = natural_assoc(&w);
        let assignments = [single(0), bonded(2)];
        let udp = evaluate_analytic(&w, &assignments, &assoc, &est(), 1500, Traffic::Udp);
        let tcp = evaluate_analytic(
            &w,
            &assignments,
            &assoc,
            &est(),
            1500,
            Traffic::tcp_default(),
        );
        assert!(tcp.total_bps < udp.total_bps);
        assert!(tcp.total_bps > 0.3 * udp.total_bps);
    }

    #[test]
    fn unassociated_clients_are_ignored() {
        let w = topology1();
        let mut assoc = natural_assoc(&w);
        assoc[0] = None;
        let e = evaluate_analytic(
            &w,
            &[single(0), single(1)],
            &assoc,
            &est(),
            1500,
            Traffic::Udp,
        );
        assert!(e.total_bps > 0.0);
        let links = cell_links(&w, &assoc, &est(), ApId(0), ChannelWidth::Ht20);
        assert_eq!(links.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one assignment per AP")]
    fn mismatched_assignments_panic() {
        let w = topology1();
        let assoc = natural_assoc(&w);
        evaluate_analytic(&w, &[single(0)], &assoc, &est(), 1500, Traffic::Udp);
    }
}
