//! Property tests for the DES kernel.

use lsm_simcore::{DetRng, EventId, EventQueue, SharedResource, SimDuration, SimTime};
use proptest::prelude::*;

/// The naive reference for [`EventQueue`]: every live event as
/// `(time, seq, payload)`, where pop removes the minimum, plus the keys
/// of cancelled events that the real heap still holds. Those stay until
/// a pop or peek reaches past them, so they count in `len` until then.
#[derive(Default)]
struct Model {
    live: Vec<(u64, u64, u64)>,
    tombs: Vec<(u64, u64)>,
}

impl Model {
    /// Drop the tombstones a pop or peek walks past (all of them when no
    /// live event is left) and return the index of the earliest live one.
    fn prune(&mut self) -> Option<usize> {
        let head = (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1));
        match head {
            Some(i) => {
                let key = (self.live[i].0, self.live[i].1);
                self.tombs.retain(|&k| k > key);
            }
            None => self.tombs.clear(),
        }
        head
    }
}

/// The reference for [`SharedResource`]: the lane as it was when every
/// query converted every request's remaining bytes to a finish instant
/// and took the earliest, lowest index on ties. Progress integration is
/// the same arithmetic as the real lane's.
struct ScanLane {
    capacity: f64,
    reqs: Vec<(f64, usize)>,
    last_advance: SimTime,
}

impl ScanLane {
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            let rate = self.capacity / self.reqs.len() as f64;
            for (remaining, _) in &mut self.reqs {
                *remaining -= (rate * dt).min(*remaining);
            }
        }
        self.last_advance = now;
    }

    fn submit(&mut self, now: SimTime, bytes: u64, ctx: usize) {
        self.advance(now);
        self.reqs.push((bytes as f64, ctx));
    }

    fn earliest(&self) -> Option<(SimTime, usize)> {
        let rate = self.capacity / self.reqs.len() as f64;
        let mut best: Option<(SimTime, usize)> = None;
        for (i, &(remaining, _)) in self.reqs.iter().enumerate() {
            let t = if remaining <= 0.5 {
                self.last_advance
            } else {
                self.last_advance + SimDuration::from_secs_f64(remaining / rate)
            };
            match best {
                Some((bt, _)) if bt <= t => {}
                _ => best = Some((t, i)),
            }
        }
        best
    }

    fn pop_due(&mut self, now: SimTime) -> Option<usize> {
        let (_, i) = self.earliest().filter(|&(t, _)| t <= now)?;
        self.advance(now);
        Some(self.reqs.remove(i).1)
    }
}

/// Lane capacities from 33 MB/s to 100 GB/s: fixed device speeds, and
/// log-uniform draws between.
fn lane_capacity() -> impl Strategy<Value = f64> {
    prop_oneof![
        prop_oneof![
            Just(33e6),
            Just(55e6),
            Just(266e6),
            Just(1e9),
            Just(7e9),
            Just(25e9),
            Just(100e9),
        ],
        (0.0f64..1.0).prop_map(|u| 33e6 * (100e9f64 / 33e6).powf(u)),
    ]
}

proptest! {
    /// [`SharedResource`] agrees with [`ScanLane`] after every step of a
    /// random mix of submits (0 bytes, a few bytes, sizes equal or close
    /// to the previous one, and large ones), clock moves (by nothing, a
    /// nanosecond, up to a millisecond, or to a nanosecond around the
    /// next completion), pops and queries. Every return value and
    /// `active()` must match; sizes close together at high capacity make
    /// requests round to the same nanosecond.
    #[test]
    fn shared_resource_matches_every_request_scan(
        capacity in lane_capacity(),
        ops in prop::collection::vec((0u8..12, 0u8..6, 0u64..1 << 26), 1..300),
    ) {
        let mut r = SharedResource::new(capacity);
        let mut m = ScanLane { capacity, reqs: Vec::new(), last_advance: SimTime::ZERO };
        let (mut now, mut last_size) = (SimTime::ZERO, 0u64);
        for (step, &(op, pick, x)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let bytes = match pick {
                        0 => 0,
                        1 => x % 8,
                        2 => last_size,
                        3 => last_size + x % 4,
                        4 => last_size.saturating_sub(x % 4),
                        _ => x,
                    };
                    last_size = bytes;
                    r.submit(now, bytes, step);
                    m.submit(now, bytes, step);
                }
                5..=6 => {
                    now = match (pick, m.earliest()) {
                        (0, _) => now,
                        (1, _) => now + SimDuration::from_nanos(1),
                        (2..=4, Some((t, _))) if t >= now => {
                            let ns = (t.as_nanos() + u64::from(pick)).saturating_sub(3);
                            SimTime::from_nanos(ns).max(now)
                        }
                        _ => now + SimDuration::from_nanos(x % 1_000_000),
                    };
                }
                7..=10 => {
                    prop_assert_eq!(r.pop_due(now), m.pop_due(now), "pop at step {}", step);
                }
                _ => {
                    let want = m.earliest().map(|(t, _)| t);
                    prop_assert_eq!(r.next_completion(), want, "query at step {}", step);
                }
            }
            prop_assert_eq!(r.active(), m.reqs.len(), "active at step {}", step);
            let want = m.earliest().map(|(t, _)| t);
            prop_assert_eq!(r.next_completion(), want, "next completion at step {}", step);
        }
        // Drain at each finish: the order and instants must match too.
        while let Some(t) = m.earliest().map(|(t, _)| t) {
            prop_assert_eq!(r.next_completion(), Some(t));
            prop_assert_eq!(r.pop_due(t), m.pop_due(t), "drain at {:?}", t);
        }
        prop_assert_eq!(r.active(), 0);
    }

    /// The queue agrees with [`Model`] after every step of a random mix
    /// of schedules, pops, bounded pops, peeks, and cancels of any id
    /// ever issued: pending, fired, cancelled, or one whose slot was
    /// since reused.
    /// Schedules land at or just after the last popped time, before it,
    /// before the last peeked head, at `FAR_FUTURE`, or at instants
    /// spread over all 64 bit positions up to `u64::MAX − 1`. Every
    /// return value, `len`, `tombstones`, `total_scheduled` and
    /// `total_fired` must match.
    #[test]
    fn event_queue_matches_naive_model(
        ops in prop::collection::vec((0u8..20, 0u64..12, 0usize..1 << 20), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        let mut issued: Vec<(EventId, u64)> = Vec::new();
        let (mut next_seq, mut scheduled, mut fired, mut now) = (0u64, 0u64, 0u64, 0u64);
        let mut peeked = 0u64;
        for (step, &(op, dt, pick)) in ops.iter().enumerate() {
            let payload = step as u64;
            match op {
                0..=6 | 16.. => {
                    let at = match op {
                        6 => SimTime::FAR_FUTURE,
                        16 => SimTime::from_nanos(now.saturating_sub(dt)),
                        17 => SimTime::from_nanos(peeked.saturating_sub(1 + dt)),
                        18 => SimTime::from_nanos((1u64 << (pick % 64)) + dt),
                        19 => SimTime::from_nanos(u64::MAX - 1 - dt),
                        _ => SimTime::from_nanos(now.saturating_add(dt)),
                    };
                    issued.push((q.schedule(at, payload), next_seq));
                    if at != SimTime::FAR_FUTURE {
                        m.live.push((at.as_nanos(), next_seq, payload));
                        scheduled += 1;
                    }
                    next_seq += 1;
                }
                7..=10 => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, seq) = issued[pick % issued.len()];
                    let hit = m.live.iter().position(|&(_, s, _)| s == seq);
                    if let Some(i) = hit {
                        let (t, s, _) = m.live.remove(i);
                        m.tombs.push((t, s));
                    }
                    prop_assert_eq!(q.cancel(id), hit.is_some(), "cancel at step {}", step);
                }
                11..=13 => {
                    // Op 13 pops only an event due within `dt` of the
                    // last popped time.
                    let until = if op == 13 { now.saturating_add(dt) } else { u64::MAX };
                    let head = m.prune().filter(|&i| m.live[i].0 <= until);
                    let want = head.map(|i| m.live.remove(i));
                    if let Some((t, _, _)) = want {
                        now = t;
                        fired += 1;
                    }
                    let got = if op == 13 {
                        q.pop_until(SimTime::from_nanos(until))
                    } else {
                        q.pop()
                    };
                    let got = got.map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, want.map(|(t, _, p)| (t, p)), "pop at step {}", step);
                }
                _ => {
                    let want = m.prune().map(|i| m.live[i].0);
                    let got = q.peek_time().map(|t| t.as_nanos());
                    prop_assert_eq!(got, want, "peek at step {}", step);
                    peeked = got.unwrap_or(peeked);
                }
            }
            prop_assert_eq!(q.len(), m.live.len() + m.tombs.len(), "len at step {}", step);
            prop_assert_eq!(q.is_empty(), m.live.is_empty() && m.tombs.is_empty());
            prop_assert_eq!(q.tombstones(), m.tombs.len(), "tombstones at step {}", step);
            prop_assert_eq!(q.total_scheduled(), scheduled);
            prop_assert_eq!(q.total_fired(), fired);
        }
    }

    /// Events always pop in (time, insertion) order, whatever the
    /// scheduling order and cancellations.
    #[test]
    fn event_queue_total_order(
        ops in prop::collection::vec((0u64..1_000_000, prop::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        let mut live = Vec::new();
        for (i, &(at, cancel_prev)) in ops.iter().enumerate() {
            let id = q.schedule(SimTime::from_nanos(at), i);
            ids.push((id, at, i));
            live.push(true);
            if cancel_prev && i > 0 && live[i - 1] {
                q.cancel(ids[i - 1].0);
                live[i - 1] = false;
            }
        }
        let mut popped = Vec::new();
        while let Some((t, payload)) = q.pop() {
            popped.push((t.as_nanos(), payload));
        }
        // Expected: all live events ordered by (time, insertion seq).
        let mut expected: Vec<(u64, usize)> = ids
            .iter()
            .zip(&live)
            .filter(|(_, &l)| l)
            .map(|(&(_, at, i), _)| (at, i))
            .collect();
        expected.sort();
        prop_assert_eq!(popped, expected);
    }

    /// Every submitted request completes exactly once, with its own
    /// context, in nondecreasing time and no sooner than the full
    /// capacity could serve it, and the resource drains empty. The
    /// bytes are checked too: `pop_due` debug-asserts that a completed
    /// request has less than one byte left.
    #[test]
    fn shared_resource_conserves_bytes(
        reqs in prop::collection::vec(
            (prop_oneof![Just(0u64), 1u64..64 << 20], 0u64..50),
            1..40,
        ),
    ) {
        let capacity = 64.0 * (1u64 << 20) as f64;
        let mut r = SharedResource::new(capacity);
        let mut now = SimTime::ZERO;
        let mut submitted = Vec::new();
        let mut done: Vec<(SimTime, usize)> = Vec::new();
        for (i, &(bytes, gap_ms)) in reqs.iter().enumerate() {
            r.submit(now, bytes, i);
            submitted.push(now);
            now += SimDuration::from_millis(gap_ms);
            // Complete what finishes before the next submission, each at
            // its own finish time, as an event loop would.
            while let Some(t) = r.next_completion().filter(|&t| t <= now) {
                done.push((t, r.pop_due(t).expect("due at its finish time")));
            }
        }
        while let Some(t) = r.next_completion() {
            done.push((t, r.pop_due(t).expect("due at its finish time")));
        }
        prop_assert_eq!(r.active(), 0);
        prop_assert!(done.windows(2).all(|w| w[0].0 <= w[1].0), "completions went back in time");
        let mut ids: Vec<usize> = done.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..reqs.len()).collect::<Vec<_>>());
        for &(t, i) in &done {
            let alone = SimDuration::from_secs_f64(reqs[i].0 as f64 / capacity);
            prop_assert!(
                t + SimDuration::from_micros(1) >= submitted[i] + alone,
                "request {i} finished at {t:?}, faster than full capacity"
            );
        }
    }

    /// Completion times are monotone in request size under identical
    /// competition.
    #[test]
    fn larger_requests_finish_later(a in 1u64..1000, b in 1u64..1000) {
        prop_assume!(a != b);
        let mut r = SharedResource::new(1e6);
        r.submit(SimTime::ZERO, a * 1000, a);
        r.submit(SimTime::ZERO, b * 1000, b);
        let t1 = r.next_completion().expect("two live requests");
        prop_assert_eq!(r.pop_due(t1), Some(a.min(b)));
        let t2 = r.next_completion().expect("one left");
        prop_assert!(t2 >= t1);
        prop_assert_eq!(r.pop_due(t2), Some(a.max(b)));
    }

    /// Forked RNG streams are reproducible and independent of sibling
    /// draw counts.
    #[test]
    fn rng_fork_stability(seed in 0u64..u64::MAX, salt in 0u64..u64::MAX) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        let mut fa = a.fork(salt);
        let mut fb = b.fork(salt);
        for _ in 0..32 {
            prop_assert_eq!(fa.below(1 << 20), fb.below(1 << 20));
        }
    }
}
