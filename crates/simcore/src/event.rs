//! Cancellable event queue with deterministic ordering.
//!
//! Events popped from the queue are ordered by `(time, sequence)`, where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore fire in scheduling order, which makes whole
//! simulations reproducible bit-for-bit.
//!
//! The binary heap holds 24-byte `(time, seq, slot)` keys; payloads live
//! in a slab of reusable slots, each recording the sequence number of the
//! event occupying it. Cancelling vacates the slot at once and leaves the
//! key behind as a tombstone: a key whose slot no longer holds its
//! sequence number is skipped when it reaches the top. Nothing on the
//! schedule, cancel or pop path hashes.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation: the event's
/// sequence number and the slab slot holding its payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

/// A heap entry. It orders by `(time, seq)` alone, reversed so that the
/// max-heap pops the earliest event; `slot` locates the payload.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
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
/// Cancellation is lazy in the heap and eager in the slab: a cancelled
/// event's slot is freed (and may be reused) at once, while its key stays
/// in the heap until it reaches the top. Schedule and pop are
/// `O(log n)`, cancel is `O(1)`. An id is honoured only while its slot
/// still holds its sequence number, so cancelling an already-fired,
/// already-cancelled or never-heaped event is a no-op — even after the
/// slot has passed to another event.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    slots: Vec<Slot<E>>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    /// Keys in the heap whose event was cancelled.
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
            heap: BinaryHeap::new(),
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
        self.heap.push(Key {
            time: at,
            seq,
            slot,
        });
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
        while let Some(key) = self.heap.pop() {
            if self.slots[key.slot as usize].seq != key.seq {
                self.tombstones -= 1;
                continue;
            }
            self.fired += 1;
            return Some((key.time, self.vacate(key.slot)));
        }
        None
    }

    /// Time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&key) = self.heap.peek() {
            if self.slots[key.slot as usize].seq == key.seq {
                return Some(key.time);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
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

    /// Cancelled-but-not-yet-pruned entries still occupying the heap
    /// (diagnostics; bounded by [`EventQueue::len`] by construction).
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Number of events currently pending (including not-yet-skipped
    /// cancelled entries; an upper bound used for progress diagnostics).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
