//! Cancellable event queue with deterministic ordering.
//!
//! Events popped from the queue are ordered by `(time, sequence)`, where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore fire in scheduling order, which makes whole
//! simulations reproducible bit-for-bit.
//!
//! # Layout: a monotone radix heap
//!
//! Pending events are 24-byte `(time, seq, slot)` keys; payloads live in a
//! slab of reusable slots, each recording the sequence number of the event
//! occupying it. The keys sit in 65 buckets relative to `base`, the time
//! of the last key brought to the front, which no pending key precedes:
//! bucket 0 is a FIFO of the keys at `base`, and bucket *b* ≥ 1 holds the
//! keys whose highest bit that differs from `base` is bit *b − 1*. So
//! every key in bucket *b* is earlier than every key in a higher bucket,
//! and a bitmap names the lowest non-empty one. A schedule appends its key
//! to the bucket it falls in. When bucket 0 runs dry, the lowest non-empty
//! bucket is redistributed: `base` moves to its earliest time and each of
//! its keys moves to a lower bucket, those at the new `base` into bucket
//! 0. Buckets above it keep their keys, because the new `base` agrees with
//! the old one in every bit above the emptied bucket's. A key moves a few
//! times over its life, never to a higher bucket; nothing sifts, and
//! nothing on the schedule, cancel or pop path hashes.
//!
//! # Why the order is exact
//!
//! The keys of one time always share a bucket, and sit in it in `seq`
//! order: a schedule appends the newest `seq`, and a redistribution or a
//! re-bucketing (below) moves keys in the order they sit, so it never
//! swaps two of one time. Bucket 0 holds keys of one time, so its front is
//! the least `(time, seq)`.
//!
//! # Schedules before `base`
//!
//! Finding the head moves `base` forward: to an event that a caller may
//! then leave pending ([`EventQueue::peek_time`] at the end of a run), or
//! past tombstones when no live event is left. A later schedule may then
//! name an earlier instant. It re-buckets every key around the new time
//! instead of breaking the invariant. An event loop that schedules only
//! while handling a popped event, at or after its time, never takes this
//! path: the pop left `base` at that time.
//!
//! # Tombstones
//!
//! Cancelling vacates the slot at once and leaves the key behind as a
//! tombstone: a key whose slot no longer holds its sequence number. Only a
//! pop or a peek drops tombstones, the ones it passes at the front of
//! bucket 0 on the way to the earliest live event; a redistribution
//! carries them like any key. So [`EventQueue::len`] and
//! [`EventQueue::tombstones`] change exactly when they would for a binary
//! heap that drops tombstones as they reach its top.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Handle to a scheduled event, usable for cancellation: the event's
/// sequence number and the slab slot holding its payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A pending event's key: `slot` locates the payload, which is still this
/// event's while the slot holds `seq`.
#[derive(Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    slot: u32,
}

/// The `seq` of a slot on the free list; no event is ever given it.
const VACANT: u64 = u64::MAX;

/// A payload slot: `seq` names the event occupying it (or is [`VACANT`]).
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A deterministic, cancellable discrete-event queue.
///
/// `E` is the event payload type chosen by the embedding simulator.
/// Cancellation is lazy in the buckets and eager in the slab: a cancelled
/// event's slot is freed (and may be reused) at once, while its key stays
/// until a pop or peek walks past it. Cancel is `O(1)`, and so is a
/// schedule at or after the last head; a pop costs the moves of the keys
/// it redistributes, at most 64 per key over the key's life. An id is
/// honoured only while its slot still holds its sequence number, so
/// cancelling an already-fired, already-cancelled or never-queued event is
/// a no-op — even after the slot has passed to another event.
pub struct EventQueue<E> {
    /// Bucket 0: the keys at `base`, in `seq` order.
    near: VecDeque<Key>,
    /// Buckets 1..=64: `far[i]` holds the keys whose highest bit that
    /// differs from `base` is bit `i`; the keys of one time in `seq` order.
    far: [Vec<Key>; 64],
    /// Bit `i` set iff `far[i]` is non-empty.
    occupied: u64,
    /// No pending key is earlier than this time, in nanoseconds.
    base: u64,
    slots: Vec<Slot<E>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    /// Keys in the buckets whose event was cancelled.
    tombstones: usize,
    next_seq: u64,
    scheduled: u64,
    fired: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: VecDeque::new(),
            far: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            base: 0,
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            next_seq: 0,
            scheduled: 0,
            fired: 0,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Events scheduled for [`SimTime::FAR_FUTURE`] are silently dropped:
    /// they model "never happens" completions.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        if at == SimTime::FAR_FUTURE {
            // No slot will ever hold this seq, so the id cancels nothing.
            return EventId { seq, slot: 0 };
        }
        let occupant = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                self.slots.push(occupant);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let time = at.as_nanos();
        if time < self.base {
            self.rebase(time);
        }
        self.file(Key { time, seq, slot });
        self.scheduled += 1;
        EventId { seq, slot }
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired,
    /// already-cancelled or unknown event is a no-op (and returns
    /// `false`) — in particular it cannot grow the queue's state.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.slots.get(id.slot as usize).map(|s| s.seq) != Some(id.seq) {
            return false;
        }
        self.vacate(id.slot);
        self.tombstones += 1;
        true
    }

    /// Remove and return the earliest live event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::FAR_FUTURE)
    }

    /// Remove and return the earliest live event if it fires at or
    /// before `until`; a later one stays pending. An event loop bounded
    /// by a horizon steps with this alone, with no peek before it.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let key = self.head().filter(|key| key.time <= until.as_nanos())?;
        self.near.pop_front();
        self.fired += 1;
        Some((SimTime::from_nanos(key.time), self.vacate(key.slot)))
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|key| SimTime::from_nanos(key.time))
    }

    /// Bring the earliest live key to the front of bucket 0, dropping the
    /// tombstones before it, and return it.
    fn head(&mut self) -> Option<Key> {
        loop {
            while let Some(&key) = self.near.front() {
                if self.slots[key.slot as usize].seq == key.seq {
                    return Some(key);
                }
                self.near.pop_front();
                self.tombstones -= 1;
            }
            if self.occupied == 0 {
                return None;
            }
            self.redistribute(self.occupied.trailing_zeros() as usize);
        }
    }

    /// Empty `far[i]` into the lower buckets around its earliest time.
    fn redistribute(&mut self, i: usize) {
        let mut keys = std::mem::take(&mut self.far[i]);
        self.occupied &= !(1 << i);
        self.base = keys
            .iter()
            .map(|key| key.time)
            .min()
            .expect("an occupied bucket holds keys");
        for key in keys.drain(..) {
            self.file(key);
        }
        // Keep the allocation: the bucket fills again.
        self.far[i] = keys;
    }

    /// Re-bucket every key around `time`, earlier than `base`.
    fn rebase(&mut self, time: u64) {
        let mut keys: Vec<Key> = self.near.drain(..).collect();
        for bucket in &mut self.far {
            keys.append(bucket);
        }
        self.occupied = 0;
        self.base = time;
        for key in keys {
            self.file(key);
        }
    }

    /// Append `key` to its bucket relative to `base`.
    fn file(&mut self, key: Key) {
        let diff = key.time ^ self.base;
        if diff == 0 {
            self.near.push_back(key);
        } else {
            let i = 63 - diff.leading_zeros() as usize;
            self.far[i].push(key);
            self.occupied |= 1 << i;
        }
    }

    /// Free an occupied slot and hand back its payload.
    fn vacate(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.seq = VACANT;
        self.free.push(slot);
        s.payload
            .take()
            .expect("an occupied slot holds its payload")
    }

    /// Cancelled entries whose keys no pop or peek has walked past yet
    /// (diagnostics; bounded by [`EventQueue::len`] by construction).
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Number of events currently pending (including not-yet-skipped
    /// cancelled entries; an upper bound used for progress diagnostics).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len() + self.tombstones
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events fired over the queue's lifetime.
    pub fn total_fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "c");
        q.schedule(t(1), "a");
        q.schedule(t(3), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_then_peek_is_consistent() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(4), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop(), Some((t(4), "b")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_never_fire() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::FAR_FUTURE, "never");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_ties_at_every_bit_position() {
        // Three events at each power of two and at the last instant before
        // FAR_FUTURE, scheduled from the top down: every bucket fills, and
        // each redistribution must keep the ties in scheduling order.
        let times: Vec<u64> = std::iter::once(u64::MAX - 1)
            .chain((0..64).rev().map(|bit| 1 << bit))
            .collect();
        let mut q = EventQueue::new();
        for round in 0..3 {
            for &at in &times {
                q.schedule(SimTime::from_nanos(at), (at, round));
            }
        }
        for &at in times.iter().rev() {
            for round in 0..3 {
                assert_eq!(q.pop(), Some((SimTime::from_nanos(at), (at, round))));
            }
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_before_a_peeked_head_keeps_fifo_ties() {
        let ns = SimTime::from_nanos;
        let mut q = EventQueue::new();
        q.schedule(ns(10), "a");
        q.schedule(ns(20), "b");
        q.schedule(ns(1 << 40), "far");
        q.schedule(ns(20), "c");
        assert_eq!(q.pop(), Some((ns(10), "a")));
        // The peek settles on 20; scheduling 15 and 20 re-buckets.
        assert_eq!(q.peek_time(), Some(ns(20)));
        q.schedule(ns(15), "d");
        q.schedule(ns(20), "e");
        q.schedule(ns(15), "f");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["d", "f", "b", "c", "e", "far"]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1u32);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(10) + SimDuration::from_nanos(1), 2);
        q.schedule(t(10), 3); // same nominal second but earlier nanos
        assert_eq!(q.pop(), Some((t(10), 3)));
        assert_eq!(q.pop(), Some((t(10) + SimDuration::from_nanos(1), 2)));
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.total_fired(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancelling_fired_events_cannot_leak_tombstones() {
        // Regression: cancel() of an already-fired event used to insert
        // into the cancelled set forever. A long-running simulation that
        // reschedules timers (cancelling the stale event after it fired)
        // would grow that set without bound.
        let mut q = EventQueue::new();
        let mut fired_ids = Vec::new();
        for round in 0..1000u64 {
            let id = q.schedule(t(round), round);
            assert_eq!(q.pop(), Some((t(round), round)));
            fired_ids.push(id);
        }
        for id in fired_ids {
            assert!(!q.cancel(id), "cancel of a fired event must be a no-op");
        }
        assert_eq!(q.tombstones(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn tombstones_are_bounded_by_pending_and_pruned_on_pop() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64).map(|i| q.schedule(t(i), i)).collect();
        for id in &ids[..50] {
            assert!(q.cancel(*id), "first cancel of a pending event");
            assert!(!q.cancel(*id), "second cancel is a no-op");
        }
        assert_eq!(q.tombstones(), 50);
        assert!(q.tombstones() <= q.len());
        let mut live = 0;
        while q.pop().is_some() {
            live += 1;
        }
        assert_eq!(live, 50);
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn far_future_events_leave_no_state_and_cancel_false() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::FAR_FUTURE, 1u32);
        assert_eq!(q.len(), 0);
        assert!(!q.cancel(id), "never-heaped event has nothing to cancel");
        assert_eq!(q.tombstones(), 0);
    }
}
