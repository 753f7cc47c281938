//! The control-plane message taxonomy and its 802.11-style wire format.
//!
//! Zone controllers exchange four message kinds, batched into one
//! [`CtrlEnvelope`] per peer per epoch:
//!
//! * [`CtrlMsg::BeaconDigest`] — a border AP's current channel/width/load,
//!   the IAPP neighbour report distilled to what a foreign zone can act on;
//! * [`CtrlMsg::IappState`] — the sender zone's epoch counter, plan
//!   fingerprint, and safe-mode flag (the liveness heartbeat);
//! * [`CtrlMsg::ProposedSwitch`] — an AP the sender re-assigned this epoch
//!   (the CSA the neighbour zone would observe over the air);
//! * [`CtrlMsg::Ack`] — cumulative acknowledgement of one envelope id.
//!
//! The wire encoding is `acorn_core::wire`'s, the codec beacons and
//! IAPP announcements use: action frame-control bytes, little-endian fields
//! read through its bounds-checked [`Reader`], channels as its
//! `(primary, width)` byte pair, and a CRC-32 FCS trailer added by
//! [`seal`] and checked by [`open`]. Parsing is defensive — every
//! malformed input maps to a typed [`WireError`], never a panic, because
//! envelopes cross the same loss/corruption gauntlet as data-plane
//! beacons.

use acorn_core::wire::{
    assignment_bytes, open, put_assignment, seal, Reader, WireError, FCS_LEN, FC_ACTION,
};
use acorn_topology::ChannelAssignment;

/// Vendor action subtype distinguishing control-plane envelopes from the
/// CSA announcements (`0x01`/`0x02`) of `acorn_core::wire`.
pub const CTRL_SUBTYPE: u8 = 0x03;

/// Wire-format version of the envelope encoding.
pub const CTRL_VERSION: u8 = 1;

/// `FaultRng` salt for the control-plane frame gauntlet, disjoint from
/// the data-plane salts `0x01..=0x04` used by `acorn_events::faults`.
pub const SALT_CTRL: u64 = 0x05;

const TAG_DIGEST: u8 = 0x01;
const TAG_IAPP: u8 = 0x02;
const TAG_SWITCH: u8 = 0x03;
const TAG_ACK: u8 = 0x04;

/// Header bytes before the message list: FC (2) + subtype (1) +
/// version (1) + from (2) + to (2) + msg id (8) + count (2).
const HEADER_LEN: usize = 18;

/// One control-plane message. Channel assignments ride as
/// `(primary index, width)` pairs — the same two bytes the beacon vendor
/// IE uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlMsg {
    /// A border AP's current operating point, gossiped so the
    /// neighbouring zone's interference view stays warm.
    BeaconDigest {
        /// Global AP id.
        ap: u16,
        /// The AP's channel assignment.
        assignment: ChannelAssignment,
        /// Associated client count.
        n_clients: u16,
    },
    /// The sender zone's liveness heartbeat and plan summary.
    IappState {
        /// Sender zone index.
        zone: u16,
        /// Last epoch the sender applied (global, 1-based).
        epoch: u64,
        /// FNV-1a fingerprint of the sender's assignment slice.
        fingerprint: u64,
        /// Whether the sender is in partition safe mode.
        safe_mode: bool,
    },
    /// An AP the sender re-assigned this epoch.
    ProposedSwitch {
        /// Global AP id.
        ap: u16,
        /// The new assignment.
        assignment: ChannelAssignment,
        /// Epoch the switch deploys in.
        epoch: u64,
    },
    /// Acknowledges receipt of the envelope with id `ack_of`.
    Ack {
        /// The acknowledged envelope's `msg_id`.
        ack_of: u64,
    },
}

impl CtrlMsg {
    /// Whether this message demands reliable delivery. Pure-ack envelopes
    /// are fire-and-forget — acking an ack would never terminate.
    pub fn needs_ack(&self) -> bool {
        !matches!(self, CtrlMsg::Ack { .. })
    }
}

/// A batched, uniquely identified unit of transmission between two zone
/// controllers. `msg_id` is monotonic per sender and is what receivers
/// dedup and ack on; a retransmission reuses the id verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlEnvelope {
    /// Sender zone index.
    pub from: u16,
    /// Receiver zone index.
    pub to: u16,
    /// Sender-monotonic envelope id.
    pub msg_id: u64,
    /// The batched payload.
    pub msgs: Vec<CtrlMsg>,
}

impl CtrlEnvelope {
    /// Whether any payload message requires acknowledgement.
    pub fn needs_ack(&self) -> bool {
        self.msgs.iter().any(CtrlMsg::needs_ack)
    }
}

/// Encodes an envelope into its wire frame, FCS included.
pub fn encode_envelope(env: &CtrlEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 20 * env.msgs.len() + FCS_LEN);
    out.extend_from_slice(&FC_ACTION);
    out.extend_from_slice(&[CTRL_SUBTYPE, CTRL_VERSION]);
    out.extend_from_slice(&env.from.to_le_bytes());
    out.extend_from_slice(&env.to.to_le_bytes());
    out.extend_from_slice(&env.msg_id.to_le_bytes());
    out.extend_from_slice(&(env.msgs.len() as u16).to_le_bytes());
    for m in &env.msgs {
        match *m {
            CtrlMsg::BeaconDigest {
                ap,
                assignment,
                n_clients,
            } => {
                out.push(TAG_DIGEST);
                out.extend_from_slice(&ap.to_le_bytes());
                put_assignment(&mut out, assignment);
                out.extend_from_slice(&n_clients.to_le_bytes());
            }
            CtrlMsg::IappState {
                zone,
                epoch,
                fingerprint,
                safe_mode,
            } => {
                out.push(TAG_IAPP);
                out.extend_from_slice(&zone.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&fingerprint.to_le_bytes());
                out.push(safe_mode as u8);
            }
            CtrlMsg::ProposedSwitch {
                ap,
                assignment,
                epoch,
            } => {
                out.push(TAG_SWITCH);
                out.extend_from_slice(&ap.to_le_bytes());
                put_assignment(&mut out, assignment);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            CtrlMsg::Ack { ack_of } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&ack_of.to_le_bytes());
            }
        }
    }
    seal(out)
}

/// Parses a wire frame back into an envelope, verifying the FCS first —
/// a corrupted frame fails [`WireError::BadFcs`] (or an earlier
/// structural check) before any field is interpreted.
pub fn parse_envelope(frame: &[u8]) -> Result<CtrlEnvelope, WireError> {
    if frame.len() < HEADER_LEN + FCS_LEN {
        return Err(WireError::Truncated);
    }
    let mut r = Reader::new(open(frame)?);
    if r.array()? != FC_ACTION || r.u8()? != CTRL_SUBTYPE {
        return Err(WireError::NotControl);
    }
    let version = r.u8()?;
    if version != CTRL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let from = r.u16()?;
    let to = r.u16()?;
    let msg_id = r.u64()?;
    let count = r.u16()? as usize;
    let mut msgs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let msg = match r.u8()? {
            TAG_DIGEST => CtrlMsg::BeaconDigest {
                ap: r.u16()?,
                assignment: r.assignment()?,
                n_clients: r.u16()?,
            },
            TAG_IAPP => CtrlMsg::IappState {
                zone: r.u16()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                safe_mode: r.u8()? != 0,
            },
            TAG_SWITCH => CtrlMsg::ProposedSwitch {
                ap: r.u16()?,
                assignment: r.assignment()?,
                epoch: r.u64()?,
            },
            TAG_ACK => CtrlMsg::Ack { ack_of: r.u64()? },
            t => return Err(WireError::BadTag(t)),
        };
        msgs.push(msg);
    }
    if r.remaining() != 0 {
        return Err(WireError::LengthMismatch);
    }
    Ok(CtrlEnvelope {
        from,
        to,
        msg_id,
        msgs,
    })
}

/// FNV-1a over an assignment slice's `(primary, width)` byte pairs — the
/// plan fingerprint zones gossip in [`CtrlMsg::IappState`] so peers can
/// detect divergence without shipping the full slice.
pub fn fingerprint_slice(assignments: &[ChannelAssignment]) -> u64 {
    assignments
        .iter()
        .flat_map(|&a| assignment_bytes(a))
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::wire::refresh_fcs;
    use acorn_topology::Channel20;

    fn sample() -> CtrlEnvelope {
        CtrlEnvelope {
            from: 2,
            to: 5,
            msg_id: 0xDEAD_BEEF_0042,
            msgs: vec![
                CtrlMsg::IappState {
                    zone: 2,
                    epoch: 17,
                    fingerprint: 0x1234_5678_9ABC_DEF0,
                    safe_mode: false,
                },
                CtrlMsg::BeaconDigest {
                    ap: 301,
                    assignment: ChannelAssignment::Bonded(Channel20(4)),
                    n_clients: 9,
                },
                CtrlMsg::ProposedSwitch {
                    ap: 302,
                    assignment: ChannelAssignment::Single(Channel20(7)),
                    epoch: 17,
                },
                CtrlMsg::Ack { ack_of: 41 },
            ],
        }
    }

    #[test]
    fn envelope_round_trips_the_wire() {
        let env = sample();
        let frame = encode_envelope(&env);
        assert_eq!(parse_envelope(&frame).expect("parse"), env);
    }

    #[test]
    fn empty_envelope_round_trips() {
        let env = CtrlEnvelope {
            from: 0,
            to: 1,
            msg_id: 0,
            msgs: vec![],
        };
        let frame = encode_envelope(&env);
        assert_eq!(frame.len(), 22);
        assert_eq!(parse_envelope(&frame).expect("parse"), env);
        assert!(!env.needs_ack());
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let frame = encode_envelope(&sample());
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                parse_envelope(&bad).is_err(),
                "bit {bit} slipped through the FCS"
            );
        }
    }

    #[test]
    fn truncation_and_foreign_frames_are_rejected() {
        let frame = encode_envelope(&sample());
        assert_eq!(parse_envelope(&frame[..10]), Err(WireError::Truncated));
        assert_eq!(parse_envelope(&[]), Err(WireError::Truncated));
        let mut foreign = frame.clone();
        foreign[2] = 0x01; // a CSA announcement subtype, valid FCS
        refresh_fcs(&mut foreign);
        assert_eq!(parse_envelope(&foreign), Err(WireError::NotControl));
    }

    #[test]
    fn illegal_bond_and_width_are_structural_errors() {
        let mut env = sample();
        env.msgs = vec![CtrlMsg::BeaconDigest {
            ap: 1,
            assignment: ChannelAssignment::Single(Channel20(3)),
            n_clients: 0,
        }];
        let mut frame = encode_envelope(&env);
        let width_at = HEADER_LEN + 1 + 2 + 1;
        frame[width_at] = 40; // odd channel 3 now claims a bond
        refresh_fcs(&mut frame);
        assert_eq!(parse_envelope(&frame), Err(WireError::IllegalBond(3)));

        frame[width_at] = 80;
        refresh_fcs(&mut frame);
        assert_eq!(parse_envelope(&frame), Err(WireError::BadWidth(80)));
    }

    #[test]
    fn fingerprint_distinguishes_width_from_channel() {
        let a = [ChannelAssignment::Single(Channel20(4))];
        let b = [ChannelAssignment::Bonded(Channel20(4))];
        let c = [ChannelAssignment::Single(Channel20(5))];
        assert_ne!(fingerprint_slice(&a), fingerprint_slice(&b));
        assert_ne!(fingerprint_slice(&a), fingerprint_slice(&c));
        assert_eq!(fingerprint_slice(&a), fingerprint_slice(&a));
    }
}
