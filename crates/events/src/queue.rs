//! The event queue: a binary heap under a **total** `(time_bits, seq)`
//! ordering.
//!
//! Two design rules make the queue deterministic where ad-hoc time loops
//! are not:
//!
//! * **No unwrapped `partial_cmp`.** Timestamps are validated once at
//!   scheduling time (finite, non-negative, never in the past) and then
//!   compared as raw `u64` bit patterns — for non-negative finite `f64`s
//!   the IEEE-754 bit order *is* the numeric order, so the heap needs no
//!   floating-point comparison at all and a NaN can never panic a sort.
//! * **No same-timestamp nondeterminism.** Every scheduled event gets a
//!   monotonically increasing sequence number, and ties in time break by
//!   it: simultaneous events fire in exactly the order they were
//!   scheduled, on every run, on every machine.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, returned by the `schedule_*` methods and
/// accepted by [`EventQueue::cancel`]. The wrapped value is the event's
/// global sequence number — the tie-break half of the total ordering —
/// which doubles as a stable per-event seed-derivation point for
/// randomized actors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// A popped event: when it fired, its queue position, and its payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fired<E> {
    /// Firing time (the queue's clock advances to exactly this value).
    pub time: f64,
    /// The event's global sequence number (== its [`EventId`]).
    pub seq: u64,
    /// The scheduled payload.
    pub event: E,
}

/// Max-heap entry; `Ord` is implemented on `(time_bits, seq)` only, so
/// the payload type needs no ordering of its own.
struct Entry<E> {
    time_bits: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time_bits == other.time_bits && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        (other.time_bits, other.seq).cmp(&(self.time_bits, self.seq))
    }
}

/// Deterministic event queue with a virtual clock and cancellable timers.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers currently pending (scheduled, not yet fired or
    /// cancelled): a heap entry is live exactly when its number is here,
    /// so a cancelled entry stays in the heap as a tombstone and is
    /// dropped when it surfaces. Never iterated, so the hash order is
    /// unobservable.
    pending: HashSet<u64>,
    now: f64,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `t = 0`.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            now: 0.0,
            next_seq: 0,
        }
    }

    /// Current virtual time (the firing time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The sequence number the next scheduled event will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending (scheduled, neither fired nor cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedules `event` at absolute time `t`.
    ///
    /// # Panics
    /// If `t` is NaN/infinite or earlier than the current clock —
    /// timestamps are validated here, once, so the ordering machinery
    /// never has to handle them.
    pub fn schedule_at(&mut self, t: f64, event: E) -> EventId {
        assert!(t.is_finite(), "event time must be finite, got {t}");
        assert!(
            t >= self.now,
            "cannot schedule into the past: t = {t} < now = {}",
            self.now
        );
        // now starts at 0 and only moves forward, so t >= 0 and the bit
        // pattern of t orders exactly like its numeric value.
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Entry {
            time_bits: t.to_bits(),
            seq,
            event,
        });
        EventId(seq)
    }

    /// Schedules `event` `dt` seconds from now (`dt ≥ 0`).
    pub fn schedule_after(&mut self, dt: f64, event: E) -> EventId {
        self.schedule_at(self.now + dt, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending
    /// (i.e. this call actually stopped it from firing).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(&id.0)
    }

    /// Pops the next pending event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        self.pop_due(f64::INFINITY)
    }

    /// Pops the next pending event if it fires at or before `horizon`,
    /// advancing the clock to its time; later events stay queued. One
    /// pass over the heap top both drops cancelled entries and takes the
    /// event: each fired event costs one set removal.
    pub fn pop_due(&mut self, horizon: f64) -> Option<Fired<E>> {
        loop {
            let top = self.heap.peek_mut()?;
            if f64::from_bits(top.time_bits) > horizon {
                return None;
            }
            let e = PeekMut::pop(top);
            if self.pending.remove(&e.seq) {
                self.now = f64::from_bits(e.time_bits);
                return Some(Fired {
                    time: self.now,
                    seq: e.seq,
                    event: e.event,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        // All at the same instant — a stable total order must fall back
        // to scheduling order, not heap internals.
        for i in 0..100 {
            q.schedule_at(5.0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seq_tiebreak_interleaves_with_distinct_times() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, "late-first");
        q.schedule_at(1.0, "early");
        q.schedule_at(2.0, "late-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, vec!["early", "late-first", "late-second"]);
    }

    #[test]
    fn cancellation_suppresses_firing() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|f| f.event), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn pop_due_skips_cancelled_heads_and_keeps_later_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert!(q.pop_due(1.5).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.pop_due(2.0).map(|f| f.event), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn relative_scheduling_accumulates_from_now() {
        let mut q = EventQueue::new();
        q.schedule_after(1.5, ());
        q.pop();
        let id = q.schedule_after(1.5, ());
        assert_eq!(id, EventId(1));
        assert_eq!(q.pop().map(|f| f.time), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_is_rejected_at_scheduling() {
        EventQueue::new().schedule_at(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, ());
        q.pop();
        q.schedule_at(1.0, ());
    }

    proptest::proptest! {
        /// Random schedule / cancel / run sequences against a sorted
        /// reference of the pending `(time, seq)` pairs. Times are
        /// quarter-second steps, so ties are common, and cancels draw from
        /// every id issued, fired and cancelled ones included. Each pop is
        /// the reference's first entry if it is due, `cancel` reports
        /// whether the event was pending, and `len` counts the reference.
        #[test]
        fn queue_matches_a_sorted_reference(
            ops in proptest::collection::vec(proptest::any::<u64>(), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut issued = 0u64;
            for op in ops {
                let arg = op >> 8;
                match op % 4 {
                    0 | 1 => {
                        let t = q.now() + (arg % 8) as f64 * 0.25;
                        assert_eq!(q.schedule_at(t, issued), EventId(issued));
                        let key = (t.to_bits(), issued);
                        let at = reference.partition_point(|&k| k < key);
                        reference.insert(at, key);
                        issued += 1;
                    }
                    2 if issued > 0 => {
                        let seq = arg % issued;
                        let live = reference.iter().position(|&(_, s)| s == seq);
                        assert_eq!(q.cancel(EventId(seq)), live.is_some(), "cancel {seq}");
                        if let Some(i) = live {
                            reference.remove(i);
                        }
                    }
                    _ => {
                        let horizon = match arg % 9 {
                            8 => f64::INFINITY,
                            k => q.now() + k as f64 * 0.25,
                        };
                        loop {
                            let due = reference
                                .first()
                                .filter(|&&(t, _)| f64::from_bits(t) <= horizon)
                                .copied();
                            let fired = q.pop_due(horizon).map(|f| (f.time.to_bits(), f.seq, f.event));
                            assert_eq!(fired, due.map(|(t, s)| (t, s, s)), "horizon {horizon}");
                            if due.is_none() {
                                break;
                            }
                            reference.remove(0);
                            assert_eq!(q.now().to_bits(), fired.map_or(0, |f| f.0));
                        }
                    }
                }
                assert_eq!(q.len(), reference.len());
            }
            let drained: Vec<(u64, u64)> =
                std::iter::from_fn(|| q.pop().map(|f| (f.time.to_bits(), f.seq))).collect();
            assert_eq!(drained, reference);
        }
    }

    #[test]
    fn bit_order_matches_numeric_order_for_times() {
        // The invariant the whole queue rests on.
        let times: [f64; 7] = [0.0, 1e-300, 0.1, 1.0, 1.5, 1e9, 1e300];
        for w in times.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }
}
