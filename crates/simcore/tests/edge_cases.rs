//! Edge-case coverage for the simcore primitive the fault subsystem
//! leans on hardest: [`EventQueue`] cancel/tombstone behaviour under the
//! interleavings a fault plan produces — timers cancelled and re-armed
//! at the same instant a fault fires, cancellations racing pops, and
//! tombstone bounds over long cancel-heavy runs.

use lsm_simcore::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

// ---------------- EventQueue × fault-style interleavings ----------------

/// A fault firing at the same instant as a cancelled-and-rearmed timer
/// must not disturb FIFO ordering of the survivors.
#[test]
fn cancel_and_rearm_at_fault_instant_keeps_fifo_order() {
    let mut q = EventQueue::new();
    let stale_wake = q.schedule(t(5), "stale-net-wake");
    q.schedule(t(5), "fault");
    // The fault handler re-syncs the wake: cancel + reschedule at the
    // very same instant. The re-armed wake must fire *after* the fault
    // (scheduling order), and the stale one not at all.
    assert!(q.cancel(stale_wake));
    q.schedule(t(5), "fresh-net-wake");
    assert_eq!(q.pop(), Some((t(5), "fault")));
    assert_eq!(q.pop(), Some((t(5), "fresh-net-wake")));
    assert_eq!(q.pop(), None);
    assert_eq!(q.tombstones(), 0, "stale wake pruned on pop");
}

/// Cancelling an event *while it is the peeked head* must make
/// `peek_time` fall through to the next live event, and a later
/// schedule at the cancelled instant must still be reachable.
#[test]
fn cancel_peeked_head_then_reschedule_same_instant() {
    let mut q = EventQueue::new();
    let head = q.schedule(t(1), "doomed");
    q.schedule(t(2), "later");
    assert_eq!(q.peek_time(), Some(t(1)));
    assert!(q.cancel(head));
    assert_eq!(q.peek_time(), Some(t(2)));
    // A fault re-arms something at the cancelled instant: time moves
    // backwards relative to the (pruned) head, which is legal — the
    // queue orders by (time, seq), not by scheduling history.
    q.schedule(t(1), "replacement");
    assert_eq!(q.pop(), Some((t(1), "replacement")));
    assert_eq!(q.pop(), Some((t(2), "later")));
}

/// Double-cancel, cancel-after-fire, and cancel-of-foreign ids must all
/// be rejected no-ops even when interleaved with reschedules that reuse
/// the same instants.
#[test]
fn cancel_is_idempotent_across_reschedule_cycles() {
    let mut q = EventQueue::new();
    let mut dead_ids = Vec::new();
    for round in 0..50u64 {
        let a = q.schedule(t(round), ("timer", round));
        let b = q.schedule(t(round), ("fault", round));
        assert!(q.cancel(a), "first cancel of a pending event succeeds");
        assert!(!q.cancel(a), "second cancel is a rejected no-op");
        assert_eq!(q.pop(), Some((t(round), ("fault", round))));
        assert!(!q.cancel(b), "cancel after fire is a rejected no-op");
        dead_ids.push(a);
        dead_ids.push(b);
    }
    assert_eq!(q.len(), 0);
    assert_eq!(q.tombstones(), 0, "nothing lingers once the heap drains");
    for id in dead_ids {
        assert!(!q.cancel(id), "long-dead ids never resurrect state");
    }
}

/// `peek_time` itself prunes cancelled heads; tombstone counts must
/// shrink as it walks, never grow.
#[test]
fn peek_prunes_tombstones_monotonically() {
    let mut q = EventQueue::new();
    let ids: Vec<_> = (0..20u64).map(|i| q.schedule(t(i), i)).collect();
    for id in &ids[..10] {
        q.cancel(*id);
    }
    assert_eq!(q.tombstones(), 10);
    assert_eq!(q.peek_time(), Some(t(10)), "first live event");
    assert_eq!(q.tombstones(), 0, "peek pruned every leading tombstone");
    assert_eq!(q.len(), 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of schedule / cancel / pop keep the queue's
    /// accounting invariants: tombstones ≤ len, fired + cancelled ==
    /// scheduled after a drain, and pops come out in non-decreasing time
    /// order. Schedules never target the past (clamped to the last
    /// popped time), exactly like a simulator scheduling from `now`.
    #[test]
    fn queue_accounting_invariants_hold(ops in prop::collection::vec((0u8..3, 0u64..16), 1..200)) {
        let mut q = EventQueue::new();
        let mut live_ids = Vec::new();
        let mut cancelled = 0u64;
        let mut last_popped: Option<SimTime> = None;
        for (op, x) in ops {
            match op {
                0 => {
                    let at = t(x).max(last_popped.unwrap_or(SimTime::ZERO));
                    live_ids.push(q.schedule(at, x));
                }
                1 => {
                    if !live_ids.is_empty() {
                        let id = live_ids[(x as usize) % live_ids.len()];
                        if q.cancel(id) {
                            cancelled += 1;
                        }
                    }
                }
                _ => {
                    if let Some((at, _)) = q.pop() {
                        if let Some(prev) = last_popped {
                            prop_assert!(at >= prev, "pop went backwards");
                        }
                        last_popped = Some(at);
                    }
                }
            }
            prop_assert!(q.tombstones() <= q.len(), "tombstones bounded by heap size");
        }
        // Drain: everything scheduled either fired or was cancelled.
        while q.pop().is_some() {}
        prop_assert_eq!(q.tombstones(), 0);
        prop_assert_eq!(q.total_fired() + cancelled, q.total_scheduled());
    }
}

// Keep `SimDuration` linked into this test crate's namespace; the
// fault-style interleavings above reason in whole seconds only.
#[test]
fn sub_second_cancel_rearm_preserves_order() {
    let mut q = EventQueue::new();
    let ns = |n: u64| SimTime::ZERO + SimDuration::from_nanos(n);
    let a = q.schedule(ns(10), "a");
    q.cancel(a);
    q.schedule(ns(9), "earlier");
    q.schedule(ns(10), "rearmed");
    assert_eq!(q.pop(), Some((ns(9), "earlier")));
    assert_eq!(q.pop(), Some((ns(10), "rearmed")));
}
