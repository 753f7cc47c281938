//! Distributed ACORN: the operational loop with no genie.
//!
//! The other examples hand the controller a god's-eye interference graph.
//! Here everything the allocator consumes is *learned and transported*:
//!
//! 1. APs exchange IAPP announcements (§4.2's alternative to the
//!    administrative authority) to discover contenders;
//! 2. the interference graph is rebuilt from the protocol caches;
//! 3. Algorithm 2 plans a new channel assignment on that learned graph;
//! 4. the switches deploy via 802.11h-style CSA countdowns, clients
//!    following from beacon announcements;
//! 5. the modified beacons themselves travel as real 802.11 frames
//!    (serialize → parse) before clients use them.
//!
//! ```text
//! cargo run --release --example distributed_acorn
//! ```

use acorn::core::csa::{switch_plans, ApCsa, CsaAction};
use acorn::core::iapp::{IappAgent, IappBus};
use acorn::core::wire::{parse_beacon, serialize_beacon};
use acorn::core::NullSink;
use acorn::core::{
    allocate, AcornConfig, AcornController, AllocSpec, AllocationConfig, ClientSnr, NetworkModel,
};
use acorn::phy::ChannelWidth;
use acorn::topology::{ApId, ClientId, InterferenceGraph};

fn main() {
    let wlan = acorn::sim::enterprise_grid(2, 2, 55.0, 10, 77);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 1);

    // Clients arrive and associate — consuming beacons off the wire.
    for c in 0..wlan.clients.len() {
        let beacons = ctl.beacons(&wlan, &state);
        for (i, b) in beacons.iter().enumerate() {
            let frame = serialize_beacon(b, [i as u8; 6], c as u64)
                .expect("a cell of at most 255 clients serializes");
            let parsed = parse_beacon(&frame).expect("own frame parses");
            assert_eq!(parsed.n_clients, b.n_clients);
        }
        ctl.associate(&wlan, &mut state, ClientId(c), &NullSink);
    }
    println!(
        "associated {} clients across {} APs",
        state.assoc.iter().filter(|a| a.is_some()).count(),
        wlan.aps.len()
    );

    // IAPP discovery: two announcement rounds.
    let mut agents: Vec<IappAgent> = (0..wlan.aps.len())
        .map(|i| IappAgent::new(ApId(i)))
        .collect();
    let bus = IappBus::new(&wlan);
    let counts: Vec<usize> = (0..wlan.aps.len())
        .map(|i| state.cell_clients(ApId(i)).len())
        .collect();
    for round in 0..2 {
        bus.round(&mut agents, &state.assignments, &counts, round as f64);
    }
    for a in &agents {
        println!(
            "AP {} hears {} neighbours over IAPP",
            a.ap.0,
            a.neighbors().len()
        );
    }

    // Rebuild the interference graph from protocol state only.
    let mut learned = InterferenceGraph::new(wlan.aps.len());
    for a in &agents {
        for (nb, _) in a.neighbors() {
            learned.add_edge(a.ap, nb);
        }
    }

    // Plan on the learned graph.
    let cells: Vec<Vec<ClientSnr>> = (0..wlan.aps.len())
        .map(|i| {
            state
                .cell_clients(ApId(i))
                .into_iter()
                .map(|c| ClientSnr {
                    client: c.0,
                    snr20_db: wlan.snr_db(ApId(i), c, ChannelWidth::Ht20),
                })
                .collect()
        })
        .collect();
    let model = NetworkModel::new(learned, cells);
    let spec = AllocSpec {
        initial: Some(&state.assignments),
        ..AllocSpec::default()
    };
    let result = allocate(
        &model,
        &ctl.config.plan,
        &AllocationConfig::default(),
        &spec,
        &NullSink,
    );
    println!(
        "allocation on the learned graph: {:.1} Mb/s after {} switches",
        result.total_bps / 1e6,
        result.switches
    );

    // Deploy via CSA: 4-beacon countdown, everyone hops together.
    let plans = switch_plans(&state.assignments, &result.assignments)
        .expect("old/new assignments come from the same deployment");
    println!("{} APs need to switch channels:", plans.len());
    let mut csa: Vec<ApCsa> = vec![ApCsa::default(); wlan.aps.len()];
    for p in &plans {
        println!("  AP {}: {:?} -> {:?}", p.ap.0, p.from, p.to);
        csa[p.ap.0]
            .schedule(p.to, 4)
            .expect("countdown of 4 beacons is non-zero");
    }
    let mut current = state.assignments.clone();
    for epoch in 0..=4 {
        for (i, machine) in csa.iter_mut().enumerate() {
            match machine.tick() {
                CsaAction::Announce { remaining, .. } if i == 0 => {
                    println!("epoch {epoch}: AP 0 announces switch in {remaining}");
                }
                CsaAction::SwitchNow(to) => {
                    current[i] = to;
                    println!("epoch {epoch}: AP {i} switched");
                }
                _ => {}
            }
        }
    }
    assert_eq!(current, result.assignments);
    println!("network deployed the new plan in lockstep.");
}
