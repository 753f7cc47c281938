//! The one 802.11 frame codec every ACORN message rides on.
//!
//! §5.1: "The delay for each client is calculated and broadcast in a
//! beacon ... along with the M_a values, the number of clients and the
//! aggregate transmission delay of an AP." The paper's Click utility
//! rides this in 802.11 beacon frames; this module defines the actual
//! bytes: an 802.11 management-frame beacon carrying a vendor-specific
//! information element (ID 221) with the ACORN payload. IAPP
//! [`Announcement`]s ride the same element in a vendor action frame, so
//! the fault-injection layer pushes inter-AP traffic through the identical
//! encode → corrupt → parse path; the control plane's zone envelopes
//! (`acorn_ctrlplane::msg`) are built on [`seal`]/[`open`] (the FCS),
//! [`put_assignment`] (the `(primary, width)` pair) and [`Reader`].
//!
//! Layout (all multi-byte fields little-endian, as on the 802.11 wire):
//!
//! ```text
//! MAC header (24 B): frame control | duration | DA | SA | BSSID | seq
//! Beacon fixed part (12 B): timestamp (8) | interval (2) | capability (2)
//! ACORN IE: 221 | len | OUI 0x41 0x43 0x4F ("ACO") | type 0x01 |
//!           version u8 | ap_id u16 | channel u8 | width u8 |
//!           access_share_q u16 (share × 2^14) | n_clients u8 |
//!           atd_us u32 | n_clients × delay_us u32
//! ```
//!
//! An element holds at most 255 bytes (59 delays). A larger cell's element
//! continues in 802.11 Fragment elements (ID 242, IEEE 802.11-2016
//! §10.28.11) that the parser reassembles, borrowing the element in place
//! when it is not fragmented; the u8 count caps a beacon at [`MAX_CLIENTS`].
//!
//! Delays are saturating microseconds (`u32::MAX` encodes ∞ — a dead
//! link). Parsing is defensive: every malformed input maps to a typed
//! [`WireError`], never a panic — property-tested against random bytes.
//!
//! Every frame ends in a 4-byte FCS (CRC-32, the 802.11 polynomial), so
//! bit corruption in flight is *detected*: a flipped frame parses to
//! [`WireError::BadFcs`], never to silently-wrong contents.

use crate::beacon::Beacon;
use crate::iapp::Announcement;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, Channel20, ChannelAssignment};
use std::borrow::Cow;

/// 802.11 management / beacon frame-control value (version 0, type
/// management, subtype beacon) in little-endian byte order.
pub const FC_BEACON: [u8; 2] = [0x80, 0x00];
/// 802.11 management / action frame-control value — the transport for
/// IAPP announcements and control-plane envelopes.
pub const FC_ACTION: [u8; 2] = [0xD0, 0x00];
/// Vendor-specific information element ID.
pub const IE_VENDOR: u8 = 221;
/// Our (made-up, documentation-range) OUI: "ACO".
pub const ACORN_OUI: [u8; 3] = [0x41, 0x43, 0x4F];
/// OUI subtype for the ACORN beacon payload.
pub const ACORN_OUI_TYPE: u8 = 0x01;
/// OUI subtype for the IAPP announcement payload.
pub const ACORN_OUI_TYPE_IAPP: u8 = 0x02;
/// Wire-format version this module speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed-point scale of the access share (Q2.14-ish: share × 2^14).
pub const SHARE_SCALE: f64 = 16384.0;
/// Maximum clients one beacon can carry (the client count is a u8).
pub const MAX_CLIENTS: usize = u8::MAX as usize;
/// Trailing frame-check-sequence bytes on every serialized frame.
pub const FCS_LEN: usize = 4;

/// Bytes of the IE payload before the per-client delay list:
/// OUI(3) + type(1) + version(1) + ap_id(2) + channel(1) + width(1) +
/// share(2) + n_clients(1) + atd(4).
const IE_FIXED: usize = 16;
/// IAPP announcement IE payload:
/// OUI(3) + type(1) + version(1) + from(2) + seq(8) + channel(1) +
/// width(1) + n_clients(2) + sent_at bits(8).
const IE_IAPP: usize = 27;
/// MAC header + beacon fixed part.
const HEADER: usize = 24 + 12;
/// MAC header alone (action frames carry their IE directly).
const MAC_HEADER: usize = 24;
/// Fragment element ID: continues the preceding element past 255 bytes.
const IE_FRAGMENT: u8 = 242;
/// Most payload bytes one element (or fragment) carries.
const ELEMENT_MAX: usize = 255;

/// Typed parse failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header or a declared length.
    Truncated,
    /// Frame control is not a beacon.
    NotABeacon,
    /// No ACORN vendor IE present.
    MissingIe,
    /// Vendor IE with our ID but wrong OUI/type.
    ForeignVendorIe,
    /// Unsupported wire version.
    BadVersion(u8),
    /// Width byte is neither 20 nor 40.
    BadWidth(u8),
    /// Bonded assignment with an odd (illegal) primary channel.
    IllegalBond(u8),
    /// The declared client (or message) count disagrees with the length.
    LengthMismatch,
    /// Too many clients for one beacon.
    TooManyClients(usize),
    /// The frame-check sequence does not match the frame contents —
    /// bits were corrupted in flight.
    BadFcs,
    /// Frame control is not an action frame (announcement parsing).
    NotAnAnnouncement,
    /// Frame control / subtype bytes are not a control-plane envelope.
    NotControl,
    /// Unknown control-plane message tag byte.
    BadTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::NotABeacon => write!(f, "not a beacon frame"),
            WireError::MissingIe => write!(f, "no ACORN information element"),
            WireError::ForeignVendorIe => write!(f, "vendor IE is not ACORN's"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadWidth(w) => write!(f, "bad width byte {w}"),
            WireError::IllegalBond(c) => write!(f, "illegal bond primary {c}"),
            WireError::LengthMismatch => write!(f, "declared count / length mismatch"),
            WireError::TooManyClients(n) => write!(f, "{n} clients exceed one beacon"),
            WireError::BadFcs => write!(f, "frame check sequence mismatch"),
            WireError::NotAnAnnouncement => write!(f, "not an announcement frame"),
            WireError::NotControl => write!(f, "not a control-plane envelope"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 as 802.11 computes its FCS: reflected polynomial `0xEDB88320`,
/// init and final-xor `0xFFFF_FFFF`. Bitwise (no table) — frames are a
/// few hundred bytes and this sits far off any hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// Appends the FCS over everything in `frame`, completing it for the air.
pub fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let fcs = crc32(&frame);
    frame.extend_from_slice(&fcs.to_le_bytes());
    frame
}

/// Checks and strips the trailing FCS, returning the protected body.
pub fn open(frame: &[u8]) -> Result<&[u8], WireError> {
    let (body, trailer) = frame
        .split_last_chunk::<FCS_LEN>()
        .ok_or(WireError::Truncated)?;
    if crc32(body) != u32::from_le_bytes(*trailer) {
        return Err(WireError::BadFcs);
    }
    Ok(body)
}

/// Recomputes the trailing FCS over the current frame contents — for
/// tooling/tests that splice or rewrite bytes of a serialized frame and
/// need it to validate again.
pub fn refresh_fcs(frame: &mut [u8]) {
    if let Some((body, trailer)) = frame.split_last_chunk_mut::<FCS_LEN>() {
        *trailer = crc32(body).to_le_bytes();
    }
}

/// An assignment's `(primary channel index, width in MHz)` bytes — how
/// every ACORN frame carries a channel.
pub fn assignment_bytes(a: ChannelAssignment) -> [u8; 2] {
    let width = match a.width() {
        ChannelWidth::Ht20 => 20,
        ChannelWidth::Ht40 => 40,
    };
    [a.primary().0, width]
}

/// Appends [`assignment_bytes`]`(a)`.
pub fn put_assignment(out: &mut Vec<u8>, a: ChannelAssignment) {
    out.extend_from_slice(&assignment_bytes(a));
}

/// A bounds-checked little-endian reader over a frame body: a read past
/// the end is [`WireError::Truncated`], never a panic.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// The next `N` bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(|[b]| b)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `(primary, width)` pair ([`assignment_bytes`]) as a legal
    /// assignment: a width other than 20/40 is [`WireError::BadWidth`], a
    /// bond on an odd primary [`WireError::IllegalBond`].
    pub fn assignment(&mut self) -> Result<ChannelAssignment, WireError> {
        match self.array()? {
            [channel, 20] => Ok(ChannelAssignment::Single(Channel20(channel))),
            [channel, 40] => {
                ChannelAssignment::bonded(Channel20(channel)).ok_or(WireError::IllegalBond(channel))
            }
            [_, w] => Err(WireError::BadWidth(w)),
        }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }
}

/// Starts a frame: the 24-byte MAC header with frame control `fc`,
/// broadcast from `bssid`.
fn mac_header(fc: [u8; 2], bssid: [u8; 6], capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&fc);
    out.extend_from_slice(&[0, 0]); // duration
    out.extend_from_slice(&[0xFF; 6]); // DA: broadcast
    out.extend_from_slice(&bssid); // SA
    out.extend_from_slice(&bssid); // BSSID
    out.extend_from_slice(&[0, 0]); // sequence control
    out
}

/// Appends the ACORN vendor element: OUI, `subtype` and version, then
/// whatever `fields` writes. A payload past 255 bytes continues in
/// Fragment elements.
fn put_acorn_ie(out: &mut Vec<u8>, subtype: u8, fields: impl FnOnce(&mut Vec<u8>)) {
    let mut at = out.len();
    out.extend_from_slice(&[IE_VENDOR, 0]);
    out.extend_from_slice(&ACORN_OUI);
    out.extend_from_slice(&[subtype, WIRE_VERSION]);
    fields(out);
    loop {
        let len = (out.len() - at - 2).min(ELEMENT_MAX);
        out[at + 1] = len as u8;
        at += 2 + len;
        if at == out.len() {
            return;
        }
        out.splice(at..at, [IE_FRAGMENT, 0]);
    }
}

/// Splits the next element `(id, payload)` off the front of `rest`;
/// `None` once fewer than its two header bytes remain.
fn next_element<'a>(rest: &mut &'a [u8]) -> Result<Option<(u8, &'a [u8])>, WireError> {
    let &[id, len, ref tail @ ..] = *rest else {
        return Ok(None);
    };
    let (payload, after) = tail
        .split_at_checked(len as usize)
        .ok_or(WireError::Truncated)?;
    *rest = after;
    Ok(Some((id, payload)))
}

/// Opens `frame`, checks its frame control is `fc` (else `not_it`), and
/// walks the elements after its first `fixed` body bytes to the first
/// vendor element, whose payload it returns — reassembled from the
/// Fragment elements that continue it, borrowed in place when none do.
fn acorn_ie(
    frame: &[u8],
    fc: [u8; 2],
    fixed: usize,
    not_it: WireError,
) -> Result<Cow<'_, [u8]>, WireError> {
    let body = open(frame)?;
    if body.len() < fixed {
        return Err(WireError::Truncated);
    }
    if body[0..2] != fc {
        return Err(not_it);
    }
    let mut rest = &body[fixed..];
    while let Some((id, payload)) = next_element(&mut rest)? {
        if id != IE_VENDOR {
            continue;
        }
        let mut ie = Cow::Borrowed(payload);
        let mut last = payload;
        while last.len() == ELEMENT_MAX && rest.first() == Some(&IE_FRAGMENT) {
            let Some((_, more)) = next_element(&mut rest)? else {
                break;
            };
            ie.to_mut().extend_from_slice(more);
            last = more;
        }
        return Ok(ie);
    }
    Err(WireError::MissingIe)
}

/// A reader past the OUI, `subtype` and version at the head of a vendor
/// element.
fn acorn_fields(ie: &[u8], subtype: u8) -> Result<Reader<'_>, WireError> {
    let mut r = Reader::new(ie);
    if r.array() != Ok(ACORN_OUI) || r.u8() != Ok(subtype) {
        return Err(WireError::ForeignVendorIe);
    }
    match r.u8()? {
        WIRE_VERSION => Ok(r),
        v => Err(WireError::BadVersion(v)),
    }
}

fn delay_to_us(d_s: f64) -> u32 {
    if !d_s.is_finite() {
        return u32::MAX;
    }
    (d_s * 1e6).clamp(0.0, (u32::MAX - 1) as f64) as u32
}

fn us_to_delay(us: u32) -> f64 {
    if us == u32::MAX {
        f64::INFINITY
    } else {
        us as f64 / 1e6
    }
}

/// Serializes a beacon into a full management frame. `bssid` stamps the
/// SA/BSSID fields; `timestamp_us` the TSF field.
///
/// Fails with [`WireError::TooManyClients`] past [`MAX_CLIENTS`] delays.
pub fn serialize_beacon(
    beacon: &Beacon,
    bssid: [u8; 6],
    timestamp_us: u64,
) -> Result<Vec<u8>, WireError> {
    let n = beacon.client_delays_s.len();
    if n > MAX_CLIENTS {
        return Err(WireError::TooManyClients(n));
    }
    let ie_len = IE_FIXED + 4 * n;
    let headers = 2 * ie_len.div_ceil(ELEMENT_MAX);
    let mut out = mac_header(FC_BEACON, bssid, HEADER + headers + ie_len + FCS_LEN);
    // Beacon fixed part.
    out.extend_from_slice(&timestamp_us.to_le_bytes());
    out.extend_from_slice(&100u16.to_le_bytes()); // 100 TU interval
    out.extend_from_slice(&0x0001u16.to_le_bytes()); // ESS capability
    put_acorn_ie(&mut out, ACORN_OUI_TYPE, |out| {
        out.extend_from_slice(&(beacon.ap.0 as u16).to_le_bytes());
        put_assignment(out, beacon.assignment);
        let share_q = (beacon.access_share.clamp(0.0, 1.0) * SHARE_SCALE).round() as u16;
        out.extend_from_slice(&share_q.to_le_bytes());
        out.push(n as u8);
        out.extend_from_slice(&delay_to_us(beacon.atd_s).to_le_bytes());
        for d in &beacon.client_delays_s {
            out.extend_from_slice(&delay_to_us(*d).to_le_bytes());
        }
    });
    Ok(seal(out))
}

/// Parses a management frame back into a [`Beacon`].
///
/// Round-trip note: delays quantize to 1 µs and the share to 1/2^14, so
/// `parse(serialize(b))` matches `b` to those resolutions (asserted by
/// the property tests); an infinite ATD/delay survives exactly.
pub fn parse_beacon(frame: &[u8]) -> Result<Beacon, WireError> {
    let ie = acorn_ie(frame, FC_BEACON, HEADER, WireError::NotABeacon)?;
    if ie.len() < IE_FIXED {
        return Err(WireError::ForeignVendorIe);
    }
    let mut r = acorn_fields(&ie, ACORN_OUI_TYPE)?;
    let ap = ApId(r.u16()? as usize);
    let assignment = r.assignment()?;
    let share = r.u16()? as f64 / SHARE_SCALE;
    let n = r.u8()? as usize;
    let atd_s = us_to_delay(r.u32()?);
    if r.remaining() != 4 * n {
        return Err(WireError::LengthMismatch);
    }
    let client_delays_s = (0..n)
        .map(|_| r.u32().map(us_to_delay))
        .collect::<Result<_, _>>()?;
    Ok(Beacon {
        ap,
        assignment,
        n_clients: n,
        client_delays_s,
        atd_s,
        access_share: share.clamp(f64::MIN_POSITIVE, 1.0),
    })
}

/// Serializes an IAPP [`Announcement`] as a vendor action frame: MAC
/// header, the ACORN vendor IE (subtype
/// [`ACORN_OUI_TYPE_IAPP`]), and the FCS. This is the transport the
/// fault-injection layer corrupts, so inter-AP control traffic gets the
/// same detection guarantees as beacons.
pub fn serialize_announcement(ann: &Announcement, bssid: [u8; 6]) -> Vec<u8> {
    let mut out = mac_header(FC_ACTION, bssid, MAC_HEADER + 2 + IE_IAPP + FCS_LEN);
    put_acorn_ie(&mut out, ACORN_OUI_TYPE_IAPP, |out| {
        out.extend_from_slice(&(ann.from.0 as u16).to_le_bytes());
        out.extend_from_slice(&ann.seq.to_le_bytes());
        put_assignment(out, ann.assignment);
        out.extend_from_slice(&(ann.n_clients.min(u16::MAX as usize) as u16).to_le_bytes());
        out.extend_from_slice(&ann.sent_at_s.to_bits().to_le_bytes());
    });
    seal(out)
}

/// Parses an action frame back into an [`Announcement`]. Defensive like
/// [`parse_beacon`]: every malformed input is a typed [`WireError`].
pub fn parse_announcement(frame: &[u8]) -> Result<Announcement, WireError> {
    let ie = acorn_ie(frame, FC_ACTION, MAC_HEADER, WireError::NotAnAnnouncement)?;
    let mut r = acorn_fields(&ie, ACORN_OUI_TYPE_IAPP)?;
    if ie.len() != IE_IAPP {
        return Err(WireError::LengthMismatch);
    }
    Ok(Announcement {
        from: ApId(r.u16()? as usize),
        seq: r.u64()?,
        assignment: r.assignment()?,
        n_clients: r.u16()? as usize,
        sent_at_s: f64::from_bits(r.u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(n: usize, bonded: bool) -> Beacon {
        Beacon {
            ap: ApId(7),
            assignment: if bonded {
                ChannelAssignment::bonded(Channel20(4)).unwrap()
            } else {
                ChannelAssignment::Single(Channel20(9))
            },
            n_clients: n,
            client_delays_s: (0..n).map(|i| 0.001 * (i + 1) as f64).collect(),
            atd_s: (0..n).map(|i| 0.001 * (i + 1) as f64).sum(),
            access_share: 1.0 / 3.0,
        }
    }

    #[test]
    fn roundtrip_single_and_bonded() {
        for bonded in [false, true] {
            let b = beacon(3, bonded);
            let frame = serialize_beacon(&b, [2; 6], 123_456).unwrap();
            let parsed = parse_beacon(&frame).unwrap();
            assert_eq!(parsed.ap, b.ap);
            assert_eq!(parsed.assignment, b.assignment);
            assert_eq!(parsed.n_clients, 3);
            assert!((parsed.atd_s - b.atd_s).abs() < 2e-6);
            assert!((parsed.access_share - b.access_share).abs() < 1e-4);
            for (x, y) in parsed.client_delays_s.iter().zip(&b.client_delays_s) {
                assert!((x - y).abs() < 2e-6);
            }
            assert!(parsed.is_consistent());
        }
    }

    #[test]
    fn infinite_delays_survive() {
        let mut b = beacon(2, false);
        b.client_delays_s[1] = f64::INFINITY;
        b.atd_s = f64::INFINITY;
        let frame = serialize_beacon(&b, [0; 6], 0).unwrap();
        let parsed = parse_beacon(&frame).unwrap();
        assert!(parsed.client_delays_s[1].is_infinite());
        assert!(parsed.atd_s.is_infinite());
    }

    #[test]
    fn empty_cell_roundtrips() {
        let b = beacon(0, false);
        let parsed = parse_beacon(&serialize_beacon(&b, [0; 6], 0).unwrap()).unwrap();
        assert_eq!(parsed.n_clients, 0);
        assert_eq!(parsed.atd_s, 0.0);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = serialize_beacon(&beacon(2, true), [1; 6], 9).unwrap();
        for cut in [0, 1, HEADER - 1, HEADER + 1, frame.len() - 1] {
            assert!(
                parse_beacon(&frame[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn non_beacon_frames_are_rejected() {
        let mut frame = serialize_beacon(&beacon(1, false), [1; 6], 9).unwrap();
        frame[0] = 0x08; // data frame
        refresh_fcs(&mut frame);
        assert_eq!(parse_beacon(&frame), Err(WireError::NotABeacon));
    }

    #[test]
    fn foreign_vendor_ie_is_rejected() {
        let mut frame = serialize_beacon(&beacon(1, false), [1; 6], 9).unwrap();
        frame[HEADER + 2] = 0x00; // clobber the OUI
        refresh_fcs(&mut frame);
        assert_eq!(parse_beacon(&frame), Err(WireError::ForeignVendorIe));
    }

    #[test]
    fn version_and_width_are_checked() {
        let mut f1 = serialize_beacon(&beacon(1, false), [1; 6], 9).unwrap();
        f1[HEADER + 2 + 4] = 99; // version byte
        refresh_fcs(&mut f1);
        assert_eq!(parse_beacon(&f1), Err(WireError::BadVersion(99)));
        let mut f2 = serialize_beacon(&beacon(1, false), [1; 6], 9).unwrap();
        f2[HEADER + 2 + 8] = 30; // width byte
        refresh_fcs(&mut f2);
        assert_eq!(parse_beacon(&f2), Err(WireError::BadWidth(30)));
    }

    #[test]
    fn illegal_bond_is_rejected() {
        let mut frame = serialize_beacon(&beacon(1, true), [1; 6], 9).unwrap();
        frame[HEADER + 2 + 7] = 5; // odd primary channel
        refresh_fcs(&mut frame);
        assert_eq!(parse_beacon(&frame), Err(WireError::IllegalBond(5)));
    }

    #[test]
    fn client_count_must_match_length() {
        let mut frame = serialize_beacon(&beacon(2, false), [1; 6], 9).unwrap();
        let count_off = HEADER + 2 + 11;
        frame[count_off] = 3; // claim one more client than present
        refresh_fcs(&mut frame);
        assert_eq!(parse_beacon(&frame), Err(WireError::LengthMismatch));
    }

    #[test]
    fn corruption_without_fcs_repair_is_detected() {
        // The in-flight story: any byte flipped after serialization (FCS
        // not recomputed) must surface as BadFcs, including flips inside
        // the trailer itself.
        let frame = serialize_beacon(&beacon(2, true), [1; 6], 9).unwrap();
        for at in [0, 2, HEADER + 2, HEADER + 9, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            assert_eq!(parse_beacon(&bad), Err(WireError::BadFcs), "flip at {at}");
        }
    }

    #[test]
    fn announcement_roundtrip_and_corruption() {
        let ann = Announcement {
            from: ApId(12),
            seq: 977,
            assignment: ChannelAssignment::bonded(Channel20(6)).unwrap(),
            n_clients: 5,
            sent_at_s: 1234.5,
        };
        let frame = serialize_announcement(&ann, [9; 6]);
        assert_eq!(parse_announcement(&frame), Ok(ann));
        // Beacon parser refuses it and vice versa (typed, no panic).
        assert_eq!(parse_beacon(&frame), Err(WireError::NotABeacon));
        let beacon_frame = serialize_beacon(&beacon(1, false), [1; 6], 0).unwrap();
        assert_eq!(
            parse_announcement(&beacon_frame),
            Err(WireError::NotAnAnnouncement)
        );
        // A flipped bit is detected.
        let mut bad = frame.clone();
        bad[MAC_HEADER + 7] ^= 0x01;
        assert_eq!(parse_announcement(&bad), Err(WireError::BadFcs));
        // Truncations are typed errors.
        for cut in [0, 3, MAC_HEADER, frame.len() - 1] {
            assert!(parse_announcement(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn too_many_clients_is_a_serialize_error() {
        let b = beacon(MAX_CLIENTS + 1, false);
        assert_eq!(
            serialize_beacon(&b, [0; 6], 0),
            Err(WireError::TooManyClients(MAX_CLIENTS + 1))
        );
        // And the maximum itself fits.
        assert!(serialize_beacon(&beacon(MAX_CLIENTS, false), [0; 6], 0).is_ok());
    }

    #[test]
    fn large_cells_continue_in_fragment_elements() {
        // 60 and 63 clients spill one fragment; 251 fills four elements
        // exactly; 255 is the most the one-byte count can describe.
        for n in [60, 63, 251, MAX_CLIENTS] {
            let b = beacon(n, true);
            let frame = serialize_beacon(&b, [4; 6], 1).unwrap();
            let ie_len = IE_FIXED + 4 * n;
            let headers = 2 * ie_len.div_ceil(255);
            assert_eq!(frame.len(), HEADER + headers + ie_len + FCS_LEN, "n={n}");
            assert_eq!(frame[HEADER..HEADER + 2], [IE_VENDOR, 255]);
            assert_eq!(frame[HEADER + 2 + 255], IE_FRAGMENT);
            let parsed = parse_beacon(&frame).unwrap();
            assert_eq!(parsed.n_clients, n);
            for (x, y) in parsed.client_delays_s.iter().zip(&b.client_delays_s) {
                assert!((x - y).abs() < 2e-6);
            }
            // A fragment cut short is a typed error, not a short read.
            let mut cut = frame[..frame.len() - FCS_LEN - 1].to_vec();
            cut.extend_from_slice(&[0; FCS_LEN]);
            refresh_fcs(&mut cut);
            assert_eq!(parse_beacon(&cut), Err(WireError::Truncated), "n={n}");
        }
    }

    #[test]
    fn other_ies_before_ours_are_skipped() {
        let b = beacon(1, false);
        let mut frame = serialize_beacon(&b, [3; 6], 1).unwrap();
        // Splice an SSID IE (id 0) in front of the vendor IE.
        let ssid: &[u8] = &[0u8, 4, b't', b'e', b's', b't'];
        let mut spliced = frame[..HEADER].to_vec();
        spliced.extend_from_slice(ssid);
        spliced.extend_from_slice(&frame[HEADER..]);
        frame = spliced;
        refresh_fcs(&mut frame);
        let parsed = parse_beacon(&frame).unwrap();
        assert_eq!(parsed.ap, b.ap);
    }

    #[test]
    fn random_bytes_never_panic() {
        // Cheap robustness sweep (the proptest suite goes further).
        let mut x = 0x12345u64;
        for len in 0..200 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let _ = parse_beacon(&bytes);
        }
    }
}
