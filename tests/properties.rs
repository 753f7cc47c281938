//! Property-based tests (proptest) over the workspace's core invariants.

use acorn::baseband::convcode::Codec;
use acorn::baseband::modem::{demodulate, modulate};
use acorn::core::allocation::{allocate, random_initial, AllocSpec, AllocationConfig};
use acorn::core::model::{ClientSnr, NetworkModel, ThroughputModel};
use acorn::core::NullSink;
use acorn::phy::coding::{coded_ber, per_from_ber};
use acorn::phy::estimator::LinkQualityEstimator;
use acorn::phy::link::sigma_for;
use acorn::phy::{ChannelWidth, CodeRate, Modulation};
use acorn::topology::{Channel20, ChannelAssignment, ChannelPlan, InterferenceGraph};
use acorn::traces::Ecdf;
use proptest::prelude::*;

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
    ]
}

fn any_code_rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::R12),
        Just(CodeRate::R23),
        Just(CodeRate::R34),
        Just(CodeRate::R56),
    ]
}

fn any_assignment() -> impl Strategy<Value = ChannelAssignment> {
    prop_oneof![
        (0u8..12).prop_map(|c| ChannelAssignment::Single(Channel20(c))),
        (0u8..6).prop_map(|c| ChannelAssignment::Bonded(Channel20(2 * c))),
    ]
}

proptest! {
    #[test]
    fn ber_stays_in_range_and_decreases_with_snr(
        m in any_modulation(),
        snr in -30.0f64..50.0,
        delta in 0.1f64..10.0,
    ) {
        let lo = m.ber_awgn(snr);
        let hi = m.ber_awgn(snr + delta);
        prop_assert!((0.0..=0.5).contains(&lo));
        prop_assert!(hi <= lo + 1e-12);
    }

    #[test]
    fn coded_ber_never_exceeds_half_and_is_monotone(
        r in any_code_rate(),
        p in 0.0f64..0.5,
        dp in 0.0f64..0.1,
    ) {
        let a = coded_ber(r, p);
        let b = coded_ber(r, (p + dp).min(0.5));
        prop_assert!((0.0..=0.5).contains(&a));
        prop_assert!(b + 1e-12 >= a);
    }

    #[test]
    fn per_is_a_probability_and_monotone_in_length(
        ber in 0.0f64..0.2,
        bits in 1u32..100_000,
    ) {
        let p = per_from_ber(ber, bits);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(per_from_ber(ber, bits + 1000) + 1e-12 >= p);
    }

    #[test]
    fn sigma_is_positive_and_one_when_clean(snr in 25.0f64..60.0) {
        // At very high SNR both widths are clean and σ → 1.
        let s = sigma_for(Modulation::Qpsk, CodeRate::R12, snr, 1500);
        prop_assert!(s > 0.0);
        prop_assert!((s - 1.0).abs() < 0.01);
    }

    #[test]
    fn conflicts_are_symmetric_and_reflexive(
        a in any_assignment(),
        b in any_assignment(),
    ) {
        prop_assert_eq!(a.conflicts(b), b.conflicts(a));
        prop_assert!(a.conflicts(a));
    }

    #[test]
    fn estimator_never_predicts_more_than_the_nominal_rate(
        snr in -10.0f64..45.0,
    ) {
        let est = LinkQualityEstimator::default();
        for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            let p = est.best_rate_point(snr, width);
            let nominal = p.mcs.mcs().rate_bps(width, est.gi);
            prop_assert!(p.goodput_bps <= nominal + 1e-6);
            prop_assert!((0.0..=1.0).contains(&p.per));
        }
    }

    #[test]
    fn calibration_roundtrips(snr in -20.0f64..50.0) {
        let est = LinkQualityEstimator::default();
        let there = est.calibrate_snr(snr, ChannelWidth::Ht20, ChannelWidth::Ht40);
        let back = est.calibrate_snr(there, ChannelWidth::Ht40, ChannelWidth::Ht20);
        prop_assert!((back - snr).abs() < 1e-9);
    }

    #[test]
    fn modem_roundtrips_any_bits(
        m in any_modulation(),
        bits in proptest::collection::vec(any::<bool>(), 1..256),
    ) {
        let rx = demodulate(m, &modulate(m, &bits));
        prop_assert_eq!(&rx[..bits.len()], &bits[..]);
    }

    #[test]
    fn codec_roundtrips_any_payload(
        r in any_code_rate(),
        bits in proptest::collection::vec(any::<bool>(), 30..400),
    ) {
        let codec = Codec::new(r);
        let tx = codec.encode(&bits);
        prop_assert_eq!(tx.len(), codec.coded_len(bits.len()));
        prop_assert_eq!(codec.decode(&tx, bits.len()), bits);
    }

    #[test]
    fn allocation_never_decreases_throughput(
        seed in 0u64..500,
        n_aps in 1usize..5,
        n_channels in 2u8..=12,
    ) {
        let cells = (0..n_aps)
            .map(|a| {
                vec![ClientSnr {
                    client: a,
                    snr20_db: 2.0 + (seed as f64 * 7.3 + a as f64 * 11.1) % 30.0,
                }]
            })
            .collect();
        let model = NetworkModel::new(InterferenceGraph::complete(n_aps), cells);
        let plan = ChannelPlan::restricted(n_channels);
        let initial = random_initial(&plan, n_aps, seed);
        let y0 = model.total_bps(&initial);
        let spec = AllocSpec { initial: Some(&initial), ..AllocSpec::default() };
        let r = allocate(&model, &plan, &AllocationConfig::default(), &spec, &NullSink);
        prop_assert!(r.total_bps + 1e-6 >= y0);
        // And the outcome is legal.
        prop_assert!(r.assignments.iter().all(|a| plan.contains(*a)));
    }

    #[test]
    fn ecdf_is_a_distribution_function(
        mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        probe in -1e6f64..1e6,
    ) {
        let e = Ecdf::new(xs.clone()).expect("non-empty finite samples");
        let f = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        // F is monotone.
        prop_assert!(e.eval(probe + 1.0) + 1e-12 >= f);
        // Quantile inverts within the sample range.
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(e.quantile(0.0), xs[0]);
        prop_assert_eq!(e.quantile(1.0), *xs.last().unwrap());
    }

    #[test]
    fn access_shares_partition_sensibly(
        n_aps in 1usize..6,
        same_channel in any::<bool>(),
    ) {
        let g = InterferenceGraph::complete(n_aps);
        let assignments: Vec<ChannelAssignment> = (0..n_aps)
            .map(|i| {
                let c = if same_channel { 0 } else { (i % 12) as u8 };
                ChannelAssignment::Single(Channel20(c))
            })
            .collect();
        for i in 0..n_aps {
            let m = acorn::mac::access_share(&g, &assignments, acorn::topology::ApId(i));
            prop_assert!(m > 0.0 && m <= 1.0);
            if same_channel {
                prop_assert!((m - 1.0 / n_aps as f64).abs() < 1e-12);
            }
        }
    }
}

proptest! {
    #[test]
    fn beacon_wire_roundtrip(
        ap in 0usize..1000,
        channel in 0u8..12,
        bond in any::<bool>(),
        share in 0.05f64..1.0,
        // Up to the one-byte client count's limit: past 59 delays the
        // element continues in Fragment elements.
        delays in proptest::collection::vec(1e-6f64..10.0, 0..=255),
    ) {
        use acorn::core::wire::{parse_beacon, serialize_beacon};
        use acorn::core::Beacon;
        use acorn::topology::{ApId, Channel20, ChannelAssignment};
        let assignment = if bond {
            ChannelAssignment::Bonded(Channel20(2 * (channel / 2)))
        } else {
            ChannelAssignment::Single(Channel20(channel))
        };
        let b = Beacon {
            ap: ApId(ap),
            assignment,
            n_clients: delays.len(),
            atd_s: delays.iter().sum(),
            client_delays_s: delays,
            access_share: share,
        };
        let frame = serialize_beacon(&b, [7; 6], 42).unwrap();
        let parsed = parse_beacon(&frame).unwrap();
        prop_assert_eq!(parsed.ap, b.ap);
        prop_assert_eq!(parsed.assignment, b.assignment);
        prop_assert_eq!(parsed.n_clients, b.n_clients);
        prop_assert!((parsed.access_share - b.access_share).abs() < 1e-4);
        for (x, y) in parsed.client_delays_s.iter().zip(&b.client_delays_s) {
            prop_assert!((x - y).abs() < 2e-6);
        }
    }

    #[test]
    fn beacon_parser_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = acorn::core::wire::parse_beacon(&bytes);
    }

    #[test]
    fn beacon_parser_never_panics_on_corrupted_valid_frames(
        flip_at in 0usize..120,
        flip_to in any::<u8>(),
    ) {
        use acorn::core::wire::{parse_beacon, serialize_beacon};
        use acorn::core::Beacon;
        use acorn::topology::{ApId, Channel20, ChannelAssignment};
        let b = Beacon {
            ap: ApId(3),
            assignment: ChannelAssignment::Single(Channel20(4)),
            n_clients: 2,
            client_delays_s: vec![0.001, 0.002],
            atd_s: 0.003,
            access_share: 0.5,
        };
        let mut frame = serialize_beacon(&b, [1; 6], 7).unwrap();
        if flip_at < frame.len() {
            frame[flip_at] = flip_to;
        }
        let _ = parse_beacon(&frame);
    }

    #[test]
    fn wire_roundtrip_under_bit_flips_never_panics_or_lies(
        n_flips in 1usize..=3,
        positions in proptest::collection::vec(0usize..4096, 3),
        seed in any::<u64>(),
        beacon_side in any::<bool>(),
    ) {
        // CRC-32 has Hamming distance ≥ 4 at these frame lengths, so a
        // frame with 1–3 flipped bits (possibly coincident, i.e. weight
        // 0–3) either parses back to the original fields or fails typed.
        // Panics and silently-wrong decodes are both bugs.
        use acorn::core::wire::{
            parse_announcement, parse_beacon, serialize_announcement, serialize_beacon,
        };
        use acorn::core::iapp::Announcement;
        use acorn::core::Beacon;
        use acorn::topology::{ApId, Channel20, ChannelAssignment};
        let assignment = ChannelAssignment::Single(Channel20((seed % 12) as u8));
        let mut frame = if beacon_side {
            let b = Beacon {
                ap: ApId(3),
                assignment,
                n_clients: 2,
                client_delays_s: vec![0.001, 0.002],
                atd_s: 0.003,
                access_share: 0.5,
            };
            serialize_beacon(&b, [1; 6], 7).unwrap()
        } else {
            let a = Announcement {
                from: ApId(9),
                assignment,
                n_clients: 4,
                seq: 21,
                sent_at_s: 3.0,
            };
            serialize_announcement(&a, [2; 6])
        };
        let original = frame.clone();
        let bits = frame.len() * 8;
        for p in positions.iter().take(n_flips) {
            let pos = p % bits;
            frame[pos / 8] ^= 1 << (pos % 8);
        }
        if beacon_side {
            if let Ok(parsed) = parse_beacon(&frame) {
                prop_assert_eq!(&frame, &original, "corrupted beacon decoded");
                prop_assert_eq!(parsed.ap, ApId(3));
            }
        } else if let Ok(parsed) = parse_announcement(&frame) {
            prop_assert_eq!(&frame, &original, "corrupted announcement decoded");
            prop_assert_eq!(parsed.from, ApId(9));
        }
    }

    #[test]
    fn iapp_never_undercounts_contenders_beyond_one_hold_down(
        seed in any::<u64>(),
        loss in 0.0f64..0.9,
        rounds in 10usize..80,
    ) {
        // A neighbour on a conflicting channel announces once a second;
        // each frame is lost independently, and each delivered frame is
        // sometimes the *previous* round's (reordered, stale seq). The
        // pessimism contract: from first contact until `expiry_s +
        // hold_down_s` past the last delivery, the agent must keep
        // counting that contender — loss may only ever make `M_a`
        // smaller, never larger (share 1.0 with a live contender would
        // be optimistic).
        use acorn::core::iapp::{Announcement, IappAgent};
        use acorn::topology::{ApId, Channel20, ChannelAssignment};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let chan = ChannelAssignment::Single(Channel20(0));
        let mut agent = IappAgent::new(ApId(0));
        let mut peer = IappAgent::new(ApId(1));
        let mut last_delivery: Option<f64> = None;
        let mut previous: Option<Announcement> = None;
        for round in 0..rounds {
            let now = round as f64;
            let fresh = peer.announce(chan, 1, now);
            if rng.gen::<f64>() >= loss {
                // 1-in-4 delivered frames arrive reordered: the stale
                // predecessor shows up instead of the fresh frame.
                let stale = rng.gen::<f64>() < 0.25;
                let msg = match (&previous, stale) {
                    (Some(p), true) => *p,
                    _ => fresh,
                };
                agent.handle(&msg, -60.0, now);
                last_delivery = Some(now);
            }
            previous = Some(fresh);
            agent.prune(now);
            if let Some(t) = last_delivery {
                if now - t <= agent.expiry_s + agent.hold_down_s {
                    prop_assert_eq!(
                        agent.contender_count(chan), 1,
                        "round {}: contender forgotten only {}s after last \
                         delivery (expiry {} + hold {})",
                        round, now - t, agent.expiry_s, agent.hold_down_s
                    );
                    prop_assert!(agent.access_share(chan) <= 0.5);
                }
            }
        }
    }

    #[test]
    fn tracker_estimate_stays_within_sample_range(
        samples in proptest::collection::vec(-5.0f64..40.0, 1..50),
    ) {
        use acorn::core::tracker::ClientTracker;
        let mut t = ClientTracker::new(0.0);
        for (i, s) in samples.iter().enumerate() {
            t.observe_snr(*s, i as f64).unwrap();
        }
        if let Some(est) = t.snr_db() {
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }
}

proptest! {
    // Algorithm 1's NaN policy, exercised adversarially: for ANY
    // candidate field (NaN access shares included) the chosen AP's
    // screened utility is the `total_cmp` maximum, and the choice is
    // invariant under reordering of the candidate list (modulo the index
    // remap) whenever the argmax is unique.
    #[test]
    fn choose_ap_is_permutation_invariant_even_with_nans(
        seed in any::<u64>(),
        n in 1usize..8,
        nan_mask in any::<u8>(),
        rotate_by in 0usize..8,
    ) {
        use acorn::core::{choose_ap, screen_score, utility, Candidate};
        use acorn::topology::ApId;
        // Derive candidate fields from the seed with a splitmix64-style
        // mixer, poisoning the access share of every mask-selected slot.
        let mix = |i: u64, salt: u64| -> f64 {
            let mut z = seed
                .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z >> 11) as f64 / (1u64 << 53) as f64 // uniform in [0, 1)
        };
        let cands: Vec<Candidate> = (0..n)
            .map(|i| {
                let share = if nan_mask & (1 << i) != 0 {
                    f64::NAN
                } else {
                    0.05 + 0.95 * mix(i as u64, 1)
                };
                let atd = 0.005 + 0.095 * mix(i as u64, 2);
                Candidate {
                    ap: ApId(i),
                    k_including_u: 1 + (mix(i as u64, 3) * 5.0) as usize,
                    access_share: share,
                    atd_including_u_s: atd,
                    delay_u_s: atd * 0.9 * mix(i as u64, 4),
                }
            })
            .collect();

        let winner = choose_ap(&cands, &NullSink).expect("non-empty candidate list");
        let screened: Vec<f64> = (0..cands.len())
            .map(|i| screen_score(utility(&cands, i)))
            .collect();
        let max = screened
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap();
        prop_assert_eq!(
            screened[winner].to_bits(),
            max.to_bits(),
            "winner must carry the total_cmp-max screened utility"
        );

        // Rotate the list: a unique argmax must keep winning.
        let r = rotate_by % cands.len();
        let mut rotated = cands.clone();
        rotated.rotate_left(r);
        let w2 = choose_ap(&rotated, &NullSink).expect("non-empty candidate list");
        let unique = screened
            .iter()
            .filter(|s| s.to_bits() == max.to_bits())
            .count()
            == 1;
        if unique {
            prop_assert_eq!(
                rotated[w2].ap, cands[winner].ap,
                "unique argmax must survive reordering"
            );
        } else {
            prop_assert_eq!(
                screen_score(utility(&rotated, w2)).to_bits(),
                max.to_bits()
            );
        }
    }

    // The histogram ingestion path must never panic, whatever bit
    // pattern arrives: NaN is counted and dropped, infinities land in
    // the under-/overflow bins, everything else is binned.
    #[test]
    fn histograms_never_panic_on_any_f64(
        bits in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        use acorn::obs::Histogram;
        let mut h = Histogram::linear(0.0, 10.0, 8).expect("static bounds");
        let mut nans = 0u64;
        for b in &bits {
            let x = f64::from_bits(*b);
            if x.is_nan() {
                nans += 1;
            }
            h.observe(x);
        }
        prop_assert_eq!(h.nan_rejected, nans);
        let binned: u64 = h.counts.iter().sum::<u64>() + h.underflow + h.overflow;
        prop_assert_eq!(binned + nans, bits.len() as u64);
    }

    // Constructor misuse is a typed error, never a panic.
    #[test]
    fn histogram_constructors_never_panic(
        lo_bits in any::<u64>(),
        hi_bits in any::<u64>(),
        n in 0usize..40,
        edge_bits in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        use acorn::obs::Histogram;
        let _ = Histogram::linear(f64::from_bits(lo_bits), f64::from_bits(hi_bits), n);
        let edges: Vec<f64> = edge_bits.iter().map(|b| f64::from_bits(*b)).collect();
        let _ = Histogram::with_edges(edges);
    }
}

proptest! {
    // The Monte-Carlo engine's core contract: the parallel chunked
    // fan-out (whatever the ambient thread count) folds to exactly the
    // report the sequential single-workspace loop produces, for any
    // packet count — including the 0- and 1-packet edges and counts
    // that don't divide evenly into chunks.
    #[test]
    fn parallel_frame_trials_match_the_sequential_fold(
        packets in 0usize..=20,
        seed in any::<u64>(),
        coded in any::<bool>(),
    ) {
        use acorn::baseband::frame::{
            run_trial_with, try_run_trial, Equalization, FrameConfig, FrameWorkspace,
        };
        let cfg = FrameConfig {
            packet_bytes: 60,
            code_rate: if coded { Some(CodeRate::R12) } else { None },
            equalization: Equalization::Genie,
            ..FrameConfig::baseline(ChannelWidth::Ht20)
        }
        .with_target_snr(7.0);
        let mut ws = FrameWorkspace::new();
        let sequential = run_trial_with(&cfg, packets, seed, &mut ws).unwrap();
        let parallel = try_run_trial(&cfg, packets, seed).unwrap();
        prop_assert_eq!(&parallel, &sequential);
        prop_assert_eq!(
            parallel.evm_rms.to_bits(),
            sequential.evm_rms.to_bits(),
            "EVM bit patterns diverge: the fold order must not depend on scheduling"
        );
    }
}

/// The vendored proptest shim has no tuple strategies, so the control
/// message and envelope strategies are hand-rolled [`Strategy`] impls
/// composing the existing samplers.
struct AnyCtrlMsg;

impl Strategy for AnyCtrlMsg {
    type Value = acorn::ctrlplane::CtrlMsg;
    fn sample(&self, rng: &mut proptest::TestRng) -> Self::Value {
        use acorn::ctrlplane::CtrlMsg;
        match (0u8..4).sample(rng) {
            0 => CtrlMsg::BeaconDigest {
                ap: any::<u16>().sample(rng),
                assignment: any_assignment().sample(rng),
                n_clients: any::<u16>().sample(rng),
            },
            1 => CtrlMsg::IappState {
                zone: any::<u16>().sample(rng),
                epoch: any::<u64>().sample(rng),
                fingerprint: any::<u64>().sample(rng),
                safe_mode: any::<bool>().sample(rng),
            },
            2 => CtrlMsg::ProposedSwitch {
                ap: any::<u16>().sample(rng),
                assignment: any_assignment().sample(rng),
                epoch: any::<u64>().sample(rng),
            },
            _ => CtrlMsg::Ack {
                ack_of: any::<u64>().sample(rng),
            },
        }
    }
}

struct AnyEnvelope;

impl Strategy for AnyEnvelope {
    type Value = acorn::ctrlplane::CtrlEnvelope;
    fn sample(&self, rng: &mut proptest::TestRng) -> Self::Value {
        acorn::ctrlplane::CtrlEnvelope {
            from: any::<u16>().sample(rng),
            to: any::<u16>().sample(rng),
            msg_id: any::<u64>().sample(rng),
            msgs: proptest::collection::vec(AnyCtrlMsg, 0..5).sample(rng),
        }
    }
}

proptest! {
    // The control-plane wire contract: every envelope the protocol can
    // construct survives encode -> parse bit-exactly, and the codec is
    // canonical (re-encoding the parse reproduces the frame bytes).
    #[test]
    fn ctrl_envelopes_round_trip_the_wire(env in AnyEnvelope) {
        use acorn::ctrlplane::{encode_envelope, parse_envelope};
        let frame = encode_envelope(&env);
        let back = parse_envelope(&frame).expect("clean frame must parse");
        prop_assert_eq!(&back, &env);
        prop_assert_eq!(encode_envelope(&back), frame);
    }

    // Any 1-3-bit corruption of a control frame is caught -- by the FCS
    // (CRC-32 detects all errors of weight <= 3 at these lengths) or by
    // a structural check -- and surfaces as a typed error, never a
    // panic and never a silently wrong envelope. Positions are deduped,
    // so every surviving flip genuinely corrupts the frame.
    #[test]
    fn bit_corruption_yields_a_typed_error_not_a_panic(
        env in AnyEnvelope,
        picks in proptest::collection::vec(any::<u64>(), 1..=3),
    ) {
        use acorn::ctrlplane::{encode_envelope, parse_envelope};
        let clean = encode_envelope(&env);
        let positions: std::collections::BTreeSet<usize> =
            picks.iter().map(|&b| b as usize % (clean.len() * 8)).collect();
        let mut frame = clean.clone();
        for p in &positions {
            frame[p / 8] ^= 1 << (p % 8);
        }
        prop_assert!(frame != clean);
        prop_assert!(parse_envelope(&frame).is_err(), "corrupted frame parsed");
    }

    // Truncation at every possible length is a typed error too.
    #[test]
    fn truncation_is_always_a_typed_error(env in AnyEnvelope, cut in any::<u64>()) {
        use acorn::ctrlplane::{encode_envelope, parse_envelope};
        let frame = encode_envelope(&env);
        let keep = cut as usize % frame.len();
        prop_assert!(parse_envelope(&frame[..keep]).is_err());
    }
}

/// The controller of the world walks: the exact estimator, or one shared
/// goodput table over a narrow range, so that drifted, walked and
/// injected SNRs also take the table's exact out-of-range path.
fn walk_ctl(table: bool) -> acorn::core::AcornController {
    use acorn::core::{AcornConfig, AcornController};
    use acorn::phy::GoodputTable;
    use std::sync::{Arc, OnceLock};
    static TABLE: OnceLock<Arc<GoodputTable>> = OnceLock::new();
    if table {
        let t = TABLE.get_or_init(|| {
            Arc::new(GoodputTable::build(
                LinkQualityEstimator::default(),
                -12.0,
                48.0,
                0.25,
            ))
        });
        AcornController::with_table(AcornConfig::default(), Arc::clone(t))
    } else {
        AcornController::new(AcornConfig::default())
    }
}

/// A small shadowed deployment for the advert-cache walk: six APs 60 m
/// apart in a 3 x 2 grid, twelve clients scattered over it.
fn advert_city(table: bool) -> acorn::events::CityWorld {
    use acorn::topology::{Point, Wlan};
    let aps = (0..6)
        .map(|i| Point::new(60.0 * (i % 3) as f64, 60.0 * (i / 3) as f64))
        .collect();
    let clients = (0..12)
        .map(|i| Point::new(-20.0 + 13.0 * i as f64, 35.0 * (i % 3) as f64 - 5.0))
        .collect();
    let wlan = Wlan::new(aps, clients, 23);
    acorn::events::CityWorld::new(wlan, walk_ctl(table), 120.0, 5)
}

/// The exact world's twin walk: nine APs 50 m apart in a 3 x 3 grid,
/// fourteen shadowed clients scattered over and around it.
fn twin_world(table: bool) -> acorn::events::AcornWorld {
    use acorn::topology::{Point, Wlan};
    let aps = (0..9)
        .map(|i| Point::new(50.0 * (i % 3) as f64, 50.0 * (i / 3) as f64))
        .collect();
    let clients = (0..14)
        .map(|i| Point::new(-25.0 + 11.0 * i as f64, 30.0 * (i % 4) as f64 - 10.0))
        .collect();
    let wlan = Wlan::new(aps, clients, 29);
    acorn::events::AcornWorld::new(wlan, walk_ctl(table), 5)
}

/// A candidate's fields as bit patterns.
fn candidate_bits(c: &acorn::core::Candidate) -> (usize, usize, u64, u64, u64) {
    (
        c.ap.0,
        c.k_including_u,
        c.access_share.to_bits(),
        c.atd_including_u_s.to_bits(),
        c.delay_u_s.to_bits(),
    )
}

/// What Algorithm 1 over the eager candidate set picks for unassociated
/// client `c`: the AP, its operating width, and `c`'s delay there as bits.
fn eager_choice<L: acorn::events::Locality>(
    w: &acorn::events::World<L>,
    c: usize,
) -> Option<(usize, ChannelWidth, u64)> {
    let candidates = w.candidates(c);
    let chosen = &candidates[acorn::core::choose_ap(&candidates, &NullSink)?];
    let ap = chosen.ap.0;
    Some((ap, w.state.operating_width[ap], chosen.delay_u_s.to_bits()))
}

/// Where client `c` joined, in [`eager_choice`]'s terms: its AP, and its
/// cached delay there at the width `expected` names.
fn joined<L: acorn::events::Locality>(
    w: &acorn::events::World<L>,
    c: usize,
    expected: Option<(usize, ChannelWidth, u64)>,
) -> Option<(usize, ChannelWidth, u64)> {
    let ap = w.state.assoc[c]?.0;
    let width = expected.map_or(ChannelWidth::Ht20, |(_, width, _)| width);
    Some((
        ap,
        width,
        w.client_delays_cached(c)[width as usize].to_bits(),
    ))
}

/// What `CityWorld::cell_bps_up` computed before the advert cache: a fresh
/// `delay_from_snr` per client of the cell, summed in association order.
fn reference_cell_bps(w: &acorn::events::CityWorld, ap: usize) -> f64 {
    let cell = w.cell_clients(ap);
    if !w.ap_up[ap] || cell.is_empty() {
        return 0.0;
    }
    let width = w.state.operating_width[ap];
    let atd: f64 = cell
        .iter()
        .map(|&c| {
            w.ctl
                .delay_from_snr(w.client_snr20_cached(c as usize), width)
        })
        .sum();
    if !(atd > 0.0) || !atd.is_finite() {
        return 0.0;
    }
    let k = cell.len() as f64;
    w.access_share(ap, true) * k * 8.0 * w.ctl.config.payload_bytes as f64 / atd
}

proptest! {
    // The city world's link and advert caches (per-client SNRs, delays
    // and per-cell ATDs at both widths) stay bit-equal to a fresh
    // recomputation through any mix of joins, leaves, drift steps, epoch
    // width passes and AP crash/restart with re-scan, and every cell's
    // goodput equals the pre-cache formula bit for bit.
    #[test]
    fn advert_cache_tracks_every_world_change(
        table in any::<bool>(),
        steps in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        use acorn::core::NullSink;
        use acorn::events::{Incremental, Locality, Telemetry};
        let mut w = advert_city(table);
        let mut tel = Telemetry::new();
        let (n_aps, n_clients) = (w.wlan.aps.len(), w.wlan.clients.len());
        for x in steps {
            let c = (x >> 8) as usize % n_clients;
            let ap = (x >> 8) as usize % n_aps;
            match x % 6 {
                0 | 1 if w.state.assoc[c].is_none() => {
                    let expected = eager_choice(&w, c);
                    w.arrive(c, true, &mut tel);
                    prop_assert_eq!(joined(&w, c, expected), expected, "arrival of {}", c);
                }
                2 => {
                    w.depart(c, true, &mut tel);
                }
                3 => {
                    w.wlan.pathloss.drift_phase += 0.4;
                    w.refresh_links();
                }
                4 => Incremental::adapt_all(&mut w),
                5 if w.ap_up[ap] => {
                    // A crash: the cell's clients find the silence and
                    // re-scan over the live APs.
                    w.ap_up[ap] = false;
                    for c in w.cell_clients(ap).to_vec() {
                        let c = c as usize;
                        w.deassociate(c);
                        let expected = eager_choice(&w, c).map(|(ap, _, d)| (ap, d));
                        let found = w.associate(c, &NullSink).map(|(ap, d)| (ap, d.to_bits()));
                        prop_assert_eq!(found, expected, "re-scan of {}", c);
                    }
                }
                5 => w.ap_up[ap] = true,
                _ => {}
            }
            prop_assert!(w.advert_cache_matches(), "stale advert after step {x:#x}");
            for a in 0..n_aps {
                prop_assert_eq!(
                    w.cell_bps_up(a).to_bits(),
                    reference_cell_bps(&w, a).to_bits(),
                    "AP {} after step {:#x}",
                    a,
                    x
                );
            }
        }
    }
}

proptest! {
    // The exact world reads the cells, conflict graph and advert cache it
    // maintains where it used to rebuild the model on every event.
    // Through any mix of arrivals, departures, drift, walks of associated
    // and unassociated clients, AP crash with re-scan, restart and
    // epochs, every read equals the controller's from-scratch API bit for
    // bit: cells, graph, advert cache, Algorithm 1 candidates, the
    // live-network sample, the width pass and the epoch model.
    #[test]
    fn exact_world_twins_the_controller(
        table in any::<bool>(),
        steps in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        use acorn::core::NullSink;
        use acorn::events::{Exact, Locality, Telemetry};
        use acorn::phy::ChannelWidth;
        use acorn::topology::{ApId, ClientId, Point};
        let mut w = twin_world(table);
        let mut tel = Telemetry::new();
        let (n_aps, n_clients) = (w.wlan.aps.len(), w.wlan.clients.len());
        for x in steps {
            let c = (x >> 8) as usize % n_clients;
            let ap = (x >> 8) as usize % n_aps;
            let pos = Point::new(((x >> 16) % 160) as f64 - 30.0, ((x >> 32) % 160) as f64 - 30.0);
            // The first client from `c` on whose association is `assoc`.
            let first = |w: &acorn::events::AcornWorld, assoc: bool| {
                (0..n_clients)
                    .map(|i| (c + i) % n_clients)
                    .find(|&i| w.state.assoc[i].is_some() == assoc)
            };
            match x % 10 {
                0 | 1 if w.state.assoc[c].is_none() => {
                    let expected = eager_choice(&w, c);
                    w.arrive(c, true, &mut tel);
                    prop_assert_eq!(joined(&w, c, expected), expected, "arrival of {}", c);
                }
                2 => {
                    w.depart(c, true, &mut tel);
                }
                3 => {
                    w.wlan.pathloss.drift_phase += 0.4;
                    w.refresh_links();
                }
                4 | 5 => {
                    if let Some(walker) = first(&w, x % 10 == 4) {
                        w.move_client(walker, pos);
                    }
                }
                6 if w.ap_up[ap] => {
                    // A crash: the cell's clients find the silence and
                    // re-scan over the live APs.
                    w.ap_up[ap] = false;
                    for c in w.cell_clients(ap).to_vec() {
                        let c = c as usize;
                        w.deassociate(c);
                        let expected = eager_choice(&w, c).map(|(ap, _, d)| (ap, d));
                        let found = w.associate(c, &NullSink).map(|(ap, d)| (ap, d.to_bits()));
                        prop_assert_eq!(found, expected, "re-scan of {}", c);
                    }
                }
                6 => w.ap_up[ap] = true,
                7 => {
                    let model = w.build_model();
                    w.ctl.reallocate(&model, &mut w.state, 1, x, false, &NullSink);
                }
                _ => {}
            }
            for a in 0..n_aps {
                let cell: Vec<usize> = w.cell_clients(a).iter().map(|&c| c as usize).collect();
                let scan: Vec<usize> = w.state.cell_clients(ApId(a)).iter().map(|c| c.0).collect();
                prop_assert_eq!(cell, scan, "cell {} after step {:#x}", a, x);
            }
            prop_assert!(
                w.graph_snapshot() == w.wlan.interference_graph(&w.state.assoc),
                "graph after step {x:#x}"
            );
            prop_assert!(w.advert_cache_matches(), "stale advert after step {x:#x}");
            if let Some(u) = first(&w, false) {
                let ours: Vec<_> = w.candidates(u).iter().map(candidate_bits).collect();
                let theirs: Vec<_> = w
                    .ctl
                    .candidates_for(&w.wlan, &w.state, ClientId(u))
                    .iter()
                    .filter(|cand| w.ap_up[cand.ap.0])
                    .map(candidate_bits)
                    .collect();
                prop_assert_eq!(ours, theirs, "candidates of {} after step {:#x}", u, x);
            }
            prop_assert_eq!(
                Exact::live_bps(&w).to_bits(),
                w.ctl.total_throughput_bps(&w.wlan, &w.state, &w.ap_up).to_bits(),
                "live goodput after step {:#x}",
                x
            );
            let mut twin = w.state.clone();
            w.ctl.adapt_widths(&w.wlan, &mut twin);
            Exact::adapt_all(&mut w);
            prop_assert_eq!(&w.state.operating_width, &twin.operating_width);
            let (ours, theirs) = (w.build_model(), w.ctl.build_model(&w.wlan, &w.state));
            for a in 0..n_aps {
                for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                    prop_assert_eq!(
                        ours.cell_base_bps(ApId(a), width).to_bits(),
                        theirs.cell_base_bps(ApId(a), width).to_bits(),
                        "AP {} at {:?} after step {:#x}",
                        a,
                        width,
                        x
                    );
                }
            }
        }
    }

    // The incremental world under the generic `MobilityProcess`: an
    // associated walker's client-mediated edges and cached link follow
    // it, so the maintained graph and advert cache stay equal to their
    // from-scratch twins through the walk, drift and session churn.
    #[test]
    fn city_walker_keeps_graph_and_adverts_current(
        table in any::<bool>(),
        walk in any::<u64>(),
    ) {
        use acorn::events::{DriftProcess, MobilityProcess, SessionProcess, Simulation};
        use acorn::topology::{ClientId, Point, Trajectory};
        use acorn::traces::Session;
        let mut sim = Simulation::new(advert_city(table));
        let n_clients = sim.world.wlan.clients.len();
        let walker = (walk % n_clients as u64) as usize;
        let sessions = (0..n_clients)
            .map(|c| Session {
                client: c,
                start_s: 5.0 * c as f64,
                duration_s: if c == walker { 1e4 } else { 300.0 + 40.0 * c as f64 },
            })
            .collect();
        let from = sim.world.wlan.clients[walker].pos;
        let to = Point::new(((walk >> 8) % 200) as f64 - 40.0, ((walk >> 24) % 140) as f64 - 40.0);
        sim.add_process(Box::new(SessionProcess {
            sessions,
            horizon_s: 1200.0,
            adapt_widths: true,
        }));
        sim.add_process(Box::new(MobilityProcess {
            client: ClientId(walker),
            trajectory: Trajectory { from, to, speed_mps: 0.25 },
            sample_period_s: 30.0,
            horizon_s: 1200.0,
            adapt_widths: true,
        }));
        sim.add_process(Box::new(DriftProcess {
            period_s: 250.0,
            horizon_s: 1200.0,
            phase_step_rad: 0.4,
        }));
        let mut associated = 0;
        for k in 1..=40 {
            sim.run(30.0 * k as f64);
            let w = &sim.world;
            associated += usize::from(w.state.assoc[walker].is_some());
            prop_assert!(
                w.graph_snapshot() == w.wlan.interference_graph(&w.state.assoc),
                "graph at {} s",
                30 * k
            );
            prop_assert!(w.advert_cache_matches(), "stale advert at {} s", 30 * k);
        }
        prop_assert!(associated >= 30, "walker associated at {associated} of 40 samples");
    }
}
