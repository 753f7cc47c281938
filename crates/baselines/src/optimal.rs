//! Exhaustive optimal channel allocation for small instances.
//!
//! The allocation problem is NP-complete, but Fig. 14's experiments use
//! 3 APs and ≤ 6 channels — small enough for brute force over all
//! `|colours|^n` assignments. This gives the true optimum against which
//! ACORN's greedy is measured (alongside the looser `Y*` bound).

use acorn_core::model::ThroughputModel;
use acorn_topology::{ChannelAssignment, ChannelPlan};

/// Result of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalResult {
    /// The best assignment found.
    pub assignments: Vec<ChannelAssignment>,
    /// Its aggregate throughput (bits/s).
    pub total_bps: f64,
    /// Number of assignments evaluated.
    pub evaluated: usize,
}

/// Exhaustively maximizes `Σ X_i` over every assignment in the plan.
/// Panics if the search space exceeds `limit` evaluations (guard against
/// accidentally brute-forcing a large network).
pub fn optimal_allocation<M: ThroughputModel>(
    model: &M,
    plan: &ChannelPlan,
    limit: usize,
) -> OptimalResult {
    let colours = plan.all_assignments();
    let n = model.n_aps();
    let space = colours
        .len()
        .checked_pow(n as u32)
        .expect("search space overflow");
    assert!(
        space <= limit,
        "search space {space} exceeds limit {limit}; use the greedy instead"
    );
    assert!(n > 0, "empty network");

    let mut assignment = vec![colours[0]; n];
    let mut best = assignment.clone();
    let mut best_y = model.total_bps(&assignment);
    let mut evaluated = 1usize;
    let mut idx = vec![0usize; n];
    loop {
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == n {
                return OptimalResult {
                    assignments: best,
                    total_bps: best_y,
                    evaluated,
                };
            }
            idx[pos] += 1;
            if idx[pos] < colours.len() {
                assignment[pos] = colours[idx[pos]];
                break;
            }
            idx[pos] = 0;
            assignment[pos] = colours[0];
            pos += 1;
        }
        let y = model.total_bps(&assignment);
        evaluated += 1;
        if y > best_y {
            best_y = y;
            best = assignment.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::allocation::{allocate, AllocSpec, AllocationConfig};
    use acorn_core::model::{ClientSnr, NetworkModel};
    use acorn_core::NullSink;
    use acorn_topology::InterferenceGraph;

    fn model(snrs_per_ap: &[&[f64]], graph: InterferenceGraph) -> NetworkModel {
        let cells = snrs_per_ap
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        NetworkModel::new(graph, cells)
    }

    #[test]
    fn optimum_separates_two_contenders() {
        let m = model(&[&[28.0], &[27.0]], InterferenceGraph::complete(2));
        let plan = ChannelPlan::restricted(4);
        let r = optimal_allocation(&m, &plan, 100);
        assert!(!r.assignments[0].conflicts(r.assignments[1]));
        assert_eq!(r.evaluated, 36); // (4 singles + 2 bonds)²
    }

    #[test]
    fn greedy_with_restarts_matches_optimum_on_small_instances() {
        // The Fig. 14 sanity: on 3-AP instances the greedy (with
        // restarts) should land at or very near the brute-force optimum.
        let m = model(&[&[28.0], &[10.0], &[2.0]], InterferenceGraph::complete(3));
        for ch in [2u8, 4, 6] {
            let plan = ChannelPlan::restricted(ch);
            let opt = optimal_allocation(&m, &plan, 2000);
            let cfg = AllocationConfig {
                epsilon: 1.0,
                max_rounds: 64,
            };
            let spec = AllocSpec {
                restarts: 8,
                seed: 3,
                ..AllocSpec::default()
            };
            let greedy = allocate(&m, &plan, &cfg, &spec, &NullSink);
            assert!(
                greedy.total_bps >= 0.97 * opt.total_bps,
                "{ch} channels: greedy {:.4e} vs optimal {:.4e}",
                greedy.total_bps,
                opt.total_bps
            );
        }
    }

    #[test]
    fn optimum_bonds_the_good_ap_in_the_fig11_setting() {
        let m = model(&[&[28.0], &[0.0], &[0.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(4);
        let r = optimal_allocation(&m, &plan, 2000);
        use acorn_phy::ChannelWidth::*;
        let widths: Vec<_> = r.assignments.iter().map(|a| a.width()).collect();
        assert_eq!(widths, vec![Ht40, Ht20, Ht20], "{:?}", r.assignments);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn oversized_search_panics() {
        let m = model(
            &[&[20.0], &[20.0], &[20.0], &[20.0], &[20.0]],
            InterferenceGraph::complete(5),
        );
        optimal_allocation(&m, &ChannelPlan::full_5ghz(), 1000);
    }
}
