//! Byte goldens for every frame ACORN puts on the air.
//!
//! Beacons (§5.1), IAPP announcements and control-plane envelopes each
//! hash to a pinned FNV-1a value, so a codec refactor that moves a
//! single byte fails here before it can move the soak or distributed
//! fingerprints downstream, which hash what survives the fault gauntlet.

use acorn::core::iapp::Announcement;
use acorn::core::wire::{serialize_announcement, serialize_beacon};
use acorn::core::Beacon;
use acorn::ctrlplane::{encode_envelope, CtrlEnvelope, CtrlMsg};
use acorn::topology::{ApId, Channel20, ChannelAssignment};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// An `n`-client cell with distinct delays; `infinite` makes one of
/// them (and so the ATD) a dead link.
fn beacon(n: usize, bonded: bool, infinite: bool) -> Beacon {
    let mut client_delays_s: Vec<f64> = (0..n).map(|i| 0.000_37 * (i + 1) as f64).collect();
    if infinite {
        client_delays_s[n / 2] = f64::INFINITY;
    }
    Beacon {
        ap: ApId(4242),
        assignment: if bonded {
            ChannelAssignment::Bonded(Channel20(6))
        } else {
            ChannelAssignment::Single(Channel20(11))
        },
        n_clients: n,
        atd_s: client_delays_s.iter().sum(),
        client_delays_s,
        access_share: 0.4375,
    }
}

#[test]
fn beacon_bytes_are_pinned() {
    // (clients, bonded, one ∞ delay) → (frame length, FNV-1a).
    let golden = [
        ((0, false, false), (58, 0xfd3e_0ab2_020f_59bf)),
        ((0, true, false), (58, 0xc0bf_45fe_96b7_c63e)),
        ((3, false, false), (70, 0x4ec2_8c96_a016_6361)),
        ((3, true, false), (70, 0x193d_8e93_6638_066e)),
        ((3, false, true), (70, 0x557b_a6e0_fae2_ace9)),
        ((3, true, true), (70, 0x24b3_1236_deed_bcda)),
        ((59, false, false), (294, 0x99e3_a668_02ad_4f31)),
        ((59, true, false), (294, 0xda54_9312_6ede_b384)),
        ((59, false, true), (294, 0x5ed9_016b_e348_b0ce)),
        ((59, true, true), (294, 0x81de_4c6f_0847_ab87)),
    ];
    for ((n, bonded, infinite), want) in golden {
        let frame = serialize_beacon(
            &beacon(n, bonded, infinite),
            [0x02, 0, 0, 0, 0x10, 0x2A],
            987_654_321,
        )
        .expect("a 59-client cell fits one element");
        assert_eq!(
            (frame.len(), fnv(&frame)),
            want,
            "beacon n={n} bonded={bonded} infinite={infinite}"
        );
    }
}

#[test]
fn announcement_bytes_are_pinned() {
    let golden = [
        (
            ChannelAssignment::Single(Channel20(3)),
            (57, 0xd731_b028_77c6_e205),
        ),
        (
            ChannelAssignment::Bonded(Channel20(8)),
            (57, 0xd7dc_293c_0357_5a57),
        ),
    ];
    for (assignment, want) in golden {
        let ann = Announcement {
            from: ApId(513),
            seq: 0x0102_0304_0506_0708,
            assignment,
            // Past u16::MAX, so the saturating client count is pinned too.
            n_clients: 70_000,
            sent_at_s: 3_600.125,
        };
        let frame = serialize_announcement(&ann, [0x02, 0, 0, 0, 0x02, 0x01]);
        assert_eq!((frame.len(), fnv(&frame)), want, "{assignment:?}");
    }
}

#[test]
fn envelope_bytes_are_pinned() {
    let every_kind = CtrlEnvelope {
        from: 3,
        to: 65_535,
        msg_id: 0xFEED_0000_0000_0011,
        msgs: vec![
            CtrlMsg::BeaconDigest {
                ap: 1_001,
                assignment: ChannelAssignment::Bonded(Channel20(10)),
                n_clients: 17,
            },
            CtrlMsg::IappState {
                zone: 3,
                epoch: 99,
                fingerprint: 0xA5A5_5A5A_0F0F_F0F0,
                safe_mode: true,
            },
            CtrlMsg::ProposedSwitch {
                ap: 1_002,
                assignment: ChannelAssignment::Single(Channel20(1)),
                epoch: 100,
            },
            CtrlMsg::Ack { ack_of: 0x11 },
        ],
    };
    let empty = CtrlEnvelope {
        from: 0,
        to: 1,
        msg_id: 0,
        msgs: vec![],
    };
    for (env, want) in [
        (every_kind, (71, 0x1535_0a97_427f_4709)),
        (empty, (22, 0x3b28_3212_7df8_5a61)),
    ] {
        let frame = encode_envelope(&env);
        assert_eq!((frame.len(), fnv(&frame)), want, "{env:?}");
    }
}
