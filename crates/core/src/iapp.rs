//! An Inter-Access-Point Protocol (IAPP) substrate.
//!
//! §4.2: to estimate throughput on a candidate channel, an AP "needs to
//! take into account (i) the number of APs already residing on this new
//! channel ... possible either with help from an administrative authority
//! or the Inter Access Point Protocol (IAPP) \[31\]." The rest of the
//! codebase uses the administrative-authority path (the genie interference
//! graph); this module builds the distributed alternative in the spirit of
//! IEEE 802.11F:
//!
//! * APs periodically broadcast [`Announcement`]s (sequence-numbered,
//!   carrying their current channel assignment and load).
//! * Each AP's [`IappAgent`] maintains a neighbour cache with per-entry
//!   expiry and replay protection, learning exactly the `con_a` sets that
//!   the `M_a = 1/(|con_a|+1)` estimate needs.
//! * [`IappBus`] is the radio: it delivers an announcement to every AP
//!   whose received power clears the decode threshold, with optional
//!   loss, using the deployment's real propagation model.
//!
//! The integration test in this module shows the protocol-derived access
//! shares converging to the genie-graph values after one announcement
//! round, and degrading gracefully (never *under*-counting contention
//! into over-optimism for long) under message loss.

use acorn_topology::{ApId, ChannelAssignment, Wlan};
use std::collections::HashMap;

/// Weakest AP-to-AP signal (dBm) at which an announcement decodes.
/// Broadcast management frames ride robust base rates, so this sits well
/// below the data decode floor.
pub const DECODE_FLOOR_DBM: f64 = -85.0;

/// One IAPP announcement frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Announcement {
    /// Originating AP.
    pub from: ApId,
    /// Monotonic per-AP sequence number (replay/ordering protection).
    pub seq: u64,
    /// The sender's current channel assignment.
    pub assignment: ChannelAssignment,
    /// The sender's associated-client count (available for future load
    /// balancing; carried but not yet consumed by the allocator).
    pub n_clients: usize,
    /// Send timestamp (seconds).
    pub sent_at_s: f64,
}

/// A cached neighbour record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// Highest sequence number seen from this neighbour.
    pub last_seq: u64,
    /// The neighbour's advertised assignment.
    pub assignment: ChannelAssignment,
    /// Client count it advertised.
    pub n_clients: usize,
    /// When we last heard it (seconds).
    pub heard_at_s: f64,
    /// Received power of the last announcement (dBm).
    pub rx_power_dbm: f64,
}

/// An expired neighbour in its hold-down window: still counted as a
/// contender (pessimistic), being re-solicited with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeldEntry {
    entry: NeighborEntry,
    /// Hold-down deadline: past this the neighbour is finally forgotten.
    held_until_s: f64,
    /// Next solicitation due time.
    next_retry_s: f64,
    /// Current backoff interval (doubles per solicitation).
    retry_interval_s: f64,
}

/// Per-AP IAPP state machine.
///
/// Loss resilience: when a cached neighbour expires without being
/// refreshed, it does **not** silently vanish — that would drop
/// `|con_a|`, inflate `M_a = 1/(|con_a|+1)`, and make the allocator
/// *optimistic* exactly when its information is worst. Instead the entry
/// enters a *hold-down* window ([`IappAgent::hold_down_s`]) during which
/// it still counts as a contender while the agent re-solicits the silent
/// neighbour with exponential backoff ([`IappAgent::due_solicits`]). Only
/// after hold-down also lapses (the neighbour is genuinely gone, not just
/// lossy) does the contender count drop.
#[derive(Debug, Clone)]
pub struct IappAgent {
    /// The AP this agent runs on.
    pub ap: ApId,
    /// Entries older than this are pruned (the 802.11F-style cache
    /// lifetime; announcements are expected once per beacon-ish period).
    pub expiry_s: f64,
    /// How long an expired entry stays pessimistically counted while
    /// retries try to re-confirm it. Defaults to one expiry period, so
    /// `M_a` can stay optimistic for at most that long under pure loss.
    pub hold_down_s: f64,
    /// Initial solicitation backoff (doubles per retry).
    pub retry_backoff_s: f64,
    seq: u64,
    neighbors: HashMap<ApId, NeighborEntry>,
    held: HashMap<ApId, HeldEntry>,
}

impl IappAgent {
    /// Creates an agent with a 10-second cache lifetime (and an equal
    /// hold-down window).
    pub fn new(ap: ApId) -> IappAgent {
        IappAgent {
            ap,
            expiry_s: 10.0,
            hold_down_s: 10.0,
            retry_backoff_s: 1.0,
            seq: 0,
            neighbors: HashMap::new(),
            held: HashMap::new(),
        }
    }

    /// Emits the next announcement.
    pub fn announce(
        &mut self,
        assignment: ChannelAssignment,
        n_clients: usize,
        now_s: f64,
    ) -> Announcement {
        self.seq += 1;
        Announcement {
            from: self.ap,
            seq: self.seq,
            assignment,
            n_clients,
            sent_at_s: now_s,
        }
    }

    /// Processes a received announcement. Stale (non-increasing sequence)
    /// frames are dropped; own frames are ignored.
    pub fn handle(&mut self, msg: &Announcement, rx_power_dbm: f64, now_s: f64) {
        if msg.from == self.ap {
            return;
        }
        // Replay protection spans both the active cache and the hold-down
        // shelf: a delayed old frame must not resurrect anything.
        let last_seq = self
            .neighbors
            .get(&msg.from)
            .map(|e| e.last_seq)
            .or_else(|| self.held.get(&msg.from).map(|h| h.entry.last_seq));
        if matches!(last_seq, Some(s) if s >= msg.seq) {
            return; // replay / reorder
        }
        self.held.remove(&msg.from); // fresh word from a silent neighbour
        self.neighbors.insert(
            msg.from,
            NeighborEntry {
                last_seq: msg.seq,
                assignment: msg.assignment,
                n_clients: msg.n_clients,
                heard_at_s: now_s,
                rx_power_dbm,
            },
        );
    }

    /// Ages the cache: entries not refreshed within `expiry_s` move to the
    /// hold-down shelf (still counted as contenders, queued for
    /// re-solicitation); shelf entries past `hold_down_s` are dropped.
    pub fn prune(&mut self, now_s: f64) {
        let expiry = self.expiry_s;
        let hold = self.hold_down_s;
        let backoff = self.retry_backoff_s;
        let mut expired: Vec<(ApId, NeighborEntry)> = Vec::new();
        self.neighbors.retain(|ap, e| {
            if now_s - e.heard_at_s <= expiry {
                true
            } else {
                expired.push((*ap, *e));
                false
            }
        });
        for (ap, entry) in expired {
            self.held.entry(ap).or_insert(HeldEntry {
                entry,
                held_until_s: entry.heard_at_s + expiry + hold,
                next_retry_s: now_s,
                retry_interval_s: backoff,
            });
        }
        self.held.retain(|_, h| now_s <= h.held_until_s);
    }

    /// Neighbours currently in hold-down (sorted by AP id).
    pub fn held_down(&self) -> Vec<ApId> {
        let mut v: Vec<ApId> = self.held.keys().copied().collect();
        v.sort_by_key(|ap| ap.0);
        v
    }

    /// Returns the held-down neighbours whose solicitation timer has
    /// fired, and doubles their backoff. The caller (controller or fault
    /// harness) should unicast a probe / expect an announcement from each;
    /// any reply re-enters the active cache via [`IappAgent::handle`].
    pub fn due_solicits(&mut self, now_s: f64) -> Vec<ApId> {
        let mut due: Vec<ApId> = self
            .held
            .iter()
            .filter(|(_, h)| now_s >= h.next_retry_s)
            .map(|(ap, _)| *ap)
            .collect();
        due.sort_by_key(|ap| ap.0);
        for ap in &due {
            if let Some(h) = self.held.get_mut(ap) {
                h.next_retry_s = now_s + h.retry_interval_s;
                h.retry_interval_s *= 2.0;
            }
        }
        due
    }

    /// Current neighbour cache (sorted by AP id for determinism).
    pub fn neighbors(&self) -> Vec<(ApId, NeighborEntry)> {
        let mut v: Vec<_> = self.neighbors.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(ap, _)| ap.0);
        v
    }

    /// `|con_a|` as learned from the protocol: cached neighbours whose
    /// advertised assignment spectrally overlaps `my_assignment`. Held-down
    /// (expired-but-unconfirmed) neighbours still count — under loss the
    /// share estimate degrades pessimistically, never optimistically.
    pub fn contender_count(&self, my_assignment: ChannelAssignment) -> usize {
        self.neighbors
            .values()
            .filter(|e| e.assignment.conflicts(my_assignment))
            .count()
            + self
                .held
                .values()
                .filter(|h| h.entry.assignment.conflicts(my_assignment))
                .count()
    }

    /// The protocol-derived channel-access share `M_a = 1/(|con_a|+1)`.
    pub fn access_share(&self, my_assignment: ChannelAssignment) -> f64 {
        1.0 / (self.contender_count(my_assignment) as f64 + 1.0)
    }
}

/// The shared medium for announcements: delivers a frame to every other
/// AP whose received power clears `decode_floor_dbm`, dropping each copy
/// independently with probability `loss`.
#[derive(Debug, Clone)]
pub struct IappBus<'a> {
    /// The deployment providing propagation.
    pub wlan: &'a Wlan,
    /// Minimum receive power to decode an announcement (dBm);
    /// [`DECODE_FLOOR_DBM`] by default.
    pub decode_floor_dbm: f64,
    /// Independent per-copy loss probability in `[0, 1)`.
    pub loss: f64,
    /// Seed for the (deterministic) loss process.
    pub seed: u64,
}

impl<'a> IappBus<'a> {
    /// Creates a lossless bus with the [`DECODE_FLOOR_DBM`] decode floor.
    pub fn new(wlan: &'a Wlan) -> IappBus<'a> {
        IappBus {
            wlan,
            decode_floor_dbm: DECODE_FLOOR_DBM,
            loss: 0.0,
            seed: 0,
        }
    }

    fn drop_roll(&self, from: ApId, to: ApId, seq: u64) -> bool {
        if self.loss <= 0.0 {
            return false;
        }
        let mut x = self.seed
            ^ (from.0 as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (to.0 as u64 + 1).wrapping_mul(0xBF58476D1CE4E5B9)
            ^ seq.wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51AFD7ED558CCD);
        x ^= x >> 33;
        ((x >> 11) as f64 / (1u64 << 53) as f64) < self.loss
    }

    /// Broadcasts one announcement: every other agent in decode range
    /// (and not hit by loss) handles it.
    pub fn broadcast(&self, msg: &Announcement, agents: &mut [IappAgent], now_s: f64) {
        for agent in agents.iter_mut() {
            if agent.ap == msg.from {
                continue;
            }
            let rx = self.wlan.ap_to_ap_rx_dbm(msg.from, agent.ap);
            if rx < self.decode_floor_dbm || self.drop_roll(msg.from, agent.ap, msg.seq) {
                continue;
            }
            agent.handle(msg, rx, now_s);
        }
    }

    /// One full announcement round: every AP announces its assignment and
    /// load; everyone in range updates their caches.
    pub fn round(
        &self,
        agents: &mut [IappAgent],
        assignments: &[ChannelAssignment],
        client_counts: &[usize],
        now_s: f64,
    ) {
        assert_eq!(agents.len(), assignments.len());
        assert_eq!(agents.len(), client_counts.len());
        let msgs: Vec<Announcement> = agents
            .iter_mut()
            .enumerate()
            .map(|(i, a)| a.announce(assignments[i], client_counts[i], now_s))
            .collect();
        for m in &msgs {
            self.broadcast(m, agents, now_s);
        }
        for a in agents.iter_mut() {
            a.prune(now_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_mac::contention::access_share as genie_access_share;
    use acorn_topology::{Channel20, Point};

    fn wlan_line(n: usize, spacing: f64) -> Wlan {
        let mut w = Wlan::new(
            (0..n)
                .map(|i| Point::new(i as f64 * spacing, 0.0))
                .collect(),
            vec![],
            4,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    fn bonded(c: u8) -> ChannelAssignment {
        ChannelAssignment::bonded(Channel20(c)).unwrap()
    }

    #[test]
    fn one_round_matches_the_genie_graph() {
        // Three APs in a line, 50 m apart: with the default CS range the
        // genie graph is a chain. The decode floor reaches further (mgmt
        // frames are robust), so trim it to the same reach for parity.
        let w = wlan_line(3, 50.0);
        let mut agents: Vec<IappAgent> = (0..3).map(|i| IappAgent::new(ApId(i))).collect();
        let assignments = vec![bonded(0), single(0), single(1)];
        // Decode floor = power at exactly the carrier-sense range.
        let cs = w.radio.carrier_sense_range_m;
        let floor = w.radio.tx_power_dbm + w.radio.antenna_gains_dbi - w.pathloss.median_db(cs);
        let bus = IappBus {
            decode_floor_dbm: floor,
            ..IappBus::new(&w)
        };
        bus.round(&mut agents, &assignments, &[2, 1, 1], 0.0);

        let genie = w.ap_only_interference_graph();
        for i in 0..3 {
            let via_iapp = agents[i].access_share(assignments[i]);
            let via_genie = genie_access_share(&genie, &assignments, ApId(i));
            assert!(
                (via_iapp - via_genie).abs() < 1e-12,
                "AP {i}: iapp {via_iapp} vs genie {via_genie}"
            );
        }
    }

    #[test]
    fn out_of_range_aps_never_enter_the_cache() {
        let w = wlan_line(2, 5000.0);
        let mut agents: Vec<IappAgent> = (0..2).map(|i| IappAgent::new(ApId(i))).collect();
        let bus = IappBus::new(&w);
        bus.round(&mut agents, &[single(0), single(0)], &[0, 0], 0.0);
        assert!(agents[0].neighbors().is_empty());
        assert_eq!(agents[0].access_share(single(0)), 1.0);
    }

    #[test]
    fn replayed_frames_are_dropped() {
        let w = wlan_line(2, 30.0);
        let mut a = IappAgent::new(ApId(1));
        let mut b = IappAgent::new(ApId(0));
        let msg1 = b.announce(single(0), 3, 0.0);
        let msg2 = b.announce(bonded(0), 4, 1.0);
        let _ = &w;
        a.handle(&msg2, -60.0, 1.0);
        a.handle(&msg1, -60.0, 2.0); // replay of the older frame
        let entry = a.neighbors()[0].1;
        assert_eq!(entry.last_seq, 2);
        assert_eq!(entry.assignment, bonded(0), "stale frame must not win");
    }

    #[test]
    fn cache_entries_expire() {
        let w = wlan_line(2, 30.0);
        let mut agents: Vec<IappAgent> = (0..2).map(|i| IappAgent::new(ApId(i))).collect();
        let bus = IappBus::new(&w);
        bus.round(&mut agents, &[single(0), single(0)], &[0, 0], 0.0);
        assert_eq!(agents[0].contender_count(single(0)), 1);
        // Silence for longer than the expiry: the neighbour vanishes.
        agents[0].prune(100.0);
        assert_eq!(agents[0].contender_count(single(0)), 0);
        assert_eq!(agents[0].access_share(single(0)), 1.0);
    }

    #[test]
    fn loss_is_deterministic_and_repaired_by_retries() {
        let w = wlan_line(2, 30.0);
        let mk = || (0..2).map(|i| IappAgent::new(ApId(i))).collect::<Vec<_>>();
        let lossy = IappBus {
            loss: 0.9,
            seed: 5,
            ..IappBus::new(&w)
        };
        let mut a1 = mk();
        let mut a2 = mk();
        for t in 0..20 {
            lossy.round(&mut a1, &[single(0), single(0)], &[0, 0], t as f64 * 0.1);
            lossy.round(&mut a2, &[single(0), single(0)], &[0, 0], t as f64 * 0.1);
        }
        // Determinism.
        assert_eq!(a1[0].neighbors(), a2[0].neighbors());
        // Even at 90 % loss, 20 rounds almost surely get one through.
        assert_eq!(a1[0].contender_count(single(0)), 1);
    }

    #[test]
    fn bonded_neighbours_count_against_both_members() {
        let w = wlan_line(2, 30.0);
        let mut agents: Vec<IappAgent> = (0..2).map(|i| IappAgent::new(ApId(i))).collect();
        let bus = IappBus::new(&w);
        bus.round(&mut agents, &[single(0), bonded(0)], &[0, 0], 0.0);
        // AP 0 on channel 0 contends with AP 1's bond {0,1}…
        assert_eq!(agents[0].contender_count(single(0)), 1);
        // …but would not on channel 2.
        assert_eq!(agents[0].contender_count(single(2)), 0);
    }

    #[test]
    fn expired_entries_hold_down_pessimistically() {
        let w = wlan_line(2, 30.0);
        let mut agents: Vec<IappAgent> = (0..2).map(|i| IappAgent::new(ApId(i))).collect();
        let bus = IappBus::new(&w);
        bus.round(&mut agents, &[single(0), single(0)], &[0, 0], 0.0);
        // Past expiry (10 s) but inside hold-down (expiry + 10 s): the
        // silent neighbour leaves the active cache yet still counts, so
        // M_a never turns optimistic on pure loss.
        agents[0].prune(15.0);
        assert!(agents[0].neighbors().is_empty());
        assert_eq!(agents[0].held_down(), vec![ApId(1)]);
        assert_eq!(agents[0].contender_count(single(0)), 1);
        assert_eq!(agents[0].access_share(single(0)), 0.5);
        // Past hold-down the neighbour is genuinely forgotten.
        agents[0].prune(25.0);
        assert!(agents[0].held_down().is_empty());
        assert_eq!(agents[0].access_share(single(0)), 1.0);
    }

    #[test]
    fn solicitations_retry_with_exponential_backoff() {
        let mut a = IappAgent::new(ApId(0));
        a.hold_down_s = 100.0;
        let mut b = IappAgent::new(ApId(1));
        let msg = b.announce(single(0), 0, 0.0);
        a.handle(&msg, -60.0, 0.0);
        a.prune(11.0); // expired → held
        assert_eq!(a.due_solicits(11.0), vec![ApId(1)], "first retry is due");
        assert!(a.due_solicits(11.0).is_empty(), "backoff gates a re-ask");
        assert!(a.due_solicits(11.5).is_empty());
        assert_eq!(a.due_solicits(12.0), vec![ApId(1)], "1 s backoff");
        assert!(a.due_solicits(13.5).is_empty(), "now doubled to 2 s");
        assert_eq!(a.due_solicits(14.0), vec![ApId(1)]);
    }

    #[test]
    fn fresh_announcements_clear_hold_down() {
        let mut a = IappAgent::new(ApId(0));
        let mut b = IappAgent::new(ApId(1));
        let m1 = b.announce(single(0), 0, 0.0);
        let m2 = b.announce(single(1), 0, 12.0);
        a.handle(&m1, -60.0, 0.0);
        a.prune(11.0);
        assert_eq!(a.held_down(), vec![ApId(1)]);
        // A replay of the expired frame must not resurrect the entry...
        a.handle(&m1, -60.0, 11.5);
        assert!(a.neighbors().is_empty());
        // ...but a genuinely fresh one restores it to the active cache.
        a.handle(&m2, -60.0, 12.0);
        assert!(a.held_down().is_empty());
        assert_eq!(a.neighbors()[0].1.assignment, single(1));
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut a = IappAgent::new(ApId(0));
        let s1 = a.announce(single(0), 0, 0.0).seq;
        let s2 = a.announce(single(0), 0, 1.0).seq;
        assert!(s2 > s1);
    }
}
