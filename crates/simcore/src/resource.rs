//! A fluid-model shared resource with equal-share service.
//!
//! [`SharedResource`] models a single bottleneck (a local disk, one lane
//! of a host page cache) serving several outstanding byte-counted
//! requests at once. Every outstanding request runs at `capacity / n`,
//! where `n` is the number of outstanding requests (processor sharing).
//! Each request carries its caller's context `C`, which comes back when
//! the request completes, so callers keep no side table of their own.
//!
//! The model is *incremental*: the embedding event loop calls
//! [`SharedResource::submit`] and [`SharedResource::pop_due`] at event
//! boundaries and asks [`SharedResource::next_completion`] for the
//! earliest finish time to schedule. Between boundaries rates are
//! constant, so progress integration is exact (no fixed time-stepping).
//!
//! # Finding the next completion
//!
//! Every request runs at the same rate, so the first request with the
//! least bytes left finishes first. [`SharedResource::next_completion`]
//! finds it by comparing `remaining` alone and converts only its bytes to
//! a finish instant, one division and one rounding per query however many
//! requests are outstanding. Finish instants are whole nanoseconds, so a
//! request submitted earlier with a little more left can round to the
//! same instant, and ties go to the earliest submission.
//! [`SharedResource::pop_due`] therefore also converts the requests
//! submitted before the least one, and completes the first of them that
//! lands on the same nanosecond. The result is the request a scan that
//! converted every request would pick.
//!
//! The multi-resource generalization (flows coupling NIC-up, NIC-down and
//! a switch, max–min fair with per-flow caps) lives in `lsm-netsim`; this
//! single-resource version is what disks and page caches use.

use crate::time::{finish_residue_bound, SimDuration, SimTime};

#[derive(Debug)]
struct Req<C> {
    remaining: f64,
    ctx: C,
}

/// A single equal-share resource (see module docs).
#[derive(Debug)]
pub struct SharedResource<C> {
    capacity: f64,
    /// Outstanding requests in submission order, so ties resolve to the
    /// earliest submission.
    reqs: Vec<Req<C>>,
    last_advance: SimTime,
}

impl<C> SharedResource<C> {
    /// Create a resource with `capacity` bytes/second.
    ///
    /// # Panics
    /// When `capacity` is not positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        SharedResource {
            capacity,
            reqs: Vec::new(),
            last_advance: SimTime::ZERO,
        }
    }

    /// Number of outstanding requests.
    pub fn active(&self) -> usize {
        self.reqs.len()
    }

    /// Submit a request for `bytes` at `now`; `ctx` comes back from
    /// [`Self::pop_due`] when it completes.
    pub fn submit(&mut self, now: SimTime, bytes: u64, ctx: C) {
        self.advance(now);
        self.reqs.push(Req {
            remaining: bytes as f64,
            ctx,
        });
    }

    /// Earliest finish time among outstanding requests, or `None` when
    /// idle.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.earliest().map(|(t, _)| t)
    }

    /// Complete the earliest-finishing request if it is due at `now`,
    /// returning its context; `None` (and no change) when the resource is
    /// idle or the earliest finish is still after `now`. Of requests due
    /// at the same instant, the earliest submitted completes first.
    pub fn pop_due(&mut self, now: SimTime) -> Option<C> {
        let (t, least) = self.earliest().filter(|&(t, _)| t <= now)?;
        // Requests submitted before `least` have more left, but may round
        // to the same nanosecond; the first of those wins the tie.
        let rate = self.rate();
        let i = self.reqs[..least]
            .iter()
            .position(|r| self.finish(r.remaining, rate) == t)
            .unwrap_or(least);
        let start = self.reqs[i].remaining;
        self.advance(now);
        let req = self.reqs.remove(i);
        debug_assert!(
            req.remaining <= finish_residue_bound(rate, start),
            "request completed with {} bytes left",
            req.remaining
        );
        Some(req.ctx)
    }

    /// The current per-request rate.
    fn rate(&self) -> f64 {
        self.capacity / self.reqs.len() as f64
    }

    /// Finish time of a request with `remaining` bytes left at the last
    /// advance, served at `rate`; non-decreasing in `remaining`.
    fn finish(&self, remaining: f64, rate: f64) -> SimTime {
        if remaining <= 0.5 {
            self.last_advance
        } else {
            self.last_advance + SimDuration::from_secs_f64(remaining / rate)
        }
    }

    /// The earliest finish time and the first request with the least
    /// bytes left, which has it: every request runs at the same rate.
    fn earliest(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, req) in self.reqs.iter().enumerate() {
            match best {
                Some((least, _)) if least <= req.remaining => {}
                _ => best = Some((req.remaining, i)),
            }
        }
        best.map(|(remaining, i)| (self.finish(remaining, self.rate()), i))
    }

    /// Integrate progress up to `now` at the rate fixed since the last
    /// submission or completion.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "resource time went backwards");
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            let rate = self.rate();
            for req in &mut self.reqs {
                req.remaining -= (rate * dt).min(req.remaining);
            }
        }
        self.last_advance = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{mb_per_s, MIB};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_request_gets_full_capacity() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 100 * MIB, 'a');
        let done = r.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(r.pop_due(done), Some('a'));
    }

    #[test]
    fn two_requests_share_equally() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 100 * MIB, 'a');
        r.submit(SimTime::ZERO, 100 * MIB, 'b');
        // 50 MB/s each: both finish at 2 s.
        let done = r.next_completion().unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn progress_integrates_across_mutations() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 100 * MIB, 'a');
        // After 0.5s alone, a has 50 MiB left; then b arrives.
        r.submit(t(0.5), 100 * MIB, 'b');
        // Now both at 50 MB/s: a finishes at 0.5 + 1.0 = 1.5s.
        let done = r.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(r.pop_due(done), Some('a'));
    }

    #[test]
    fn completion_then_speedup() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 50 * MIB, 'a');
        r.submit(SimTime::ZERO, 100 * MIB, 'b');
        let ta = r.next_completion().unwrap();
        assert_eq!(r.pop_due(ta), Some('a'));
        // b: 50 MiB served in the first second at half rate, the
        // remaining 50 MiB at full rate => 0.5 s more.
        let tb = r.next_completion().unwrap();
        assert!((tb.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(r.pop_due(tb), Some('b'));
        assert_eq!(r.active(), 0);
    }

    #[test]
    fn zero_byte_request_completes_immediately() {
        let mut r = SharedResource::new(mb_per_s(10.0));
        r.submit(t(3.0), 0, 'z');
        assert_eq!(r.next_completion(), Some(t(3.0)));
        assert_eq!(r.pop_due(t(3.0)), Some('z'));
    }

    #[test]
    fn ties_resolve_to_lowest_id() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 50 * MIB, 'a');
        r.submit(SimTime::ZERO, 50 * MIB, 'b');
        let done = r.next_completion().unwrap();
        assert_eq!(r.pop_due(done), Some('a'));
        assert_eq!(r.pop_due(done), Some('b'));
    }

    #[test]
    fn rounding_ties_resolve_to_the_earliest_submission() {
        // 50 GB/s each: 1,010 bytes take 20.2 ns and 1,000 bytes 20 ns,
        // so both finish at the 20th nanosecond. The first submitted
        // completes first although it has 10 bytes more left, which half
        // a nanosecond at 50 GB/s (25 bytes) covers.
        let mut r = SharedResource::new(100e9);
        r.submit(SimTime::ZERO, 1_010, 'a');
        r.submit(SimTime::ZERO, 1_000, 'b');
        let done = r.next_completion().unwrap();
        assert_eq!(done, SimTime::from_nanos(20));
        assert_eq!(r.pop_due(done), Some('a'));
        assert_eq!(r.next_completion(), Some(done));
        assert_eq!(r.pop_due(done), Some('b'));
    }

    #[test]
    fn new_rejects_non_finite_or_non_positive_capacity() {
        for capacity in [f64::INFINITY, f64::NAN, 0.0] {
            let built = std::panic::catch_unwind(|| SharedResource::<()>::new(capacity));
            assert!(built.is_err(), "capacity {capacity} was accepted");
        }
    }

    #[test]
    fn pop_due_before_the_finish_leaves_the_request_queued() {
        let mut r = SharedResource::new(mb_per_s(100.0));
        r.submit(SimTime::ZERO, 100 * MIB, 'a');
        let done = r.next_completion().unwrap();
        assert_eq!(r.pop_due(t(0.5)), None);
        assert_eq!(r.active(), 1);
        assert_eq!(r.next_completion(), Some(done));
        assert_eq!(r.pop_due(done), Some('a'));
    }
}
