//! Micro-benchmarks of the `EventQueue` in three regimes.
//!
//! - 1M pending events is a stress regime, far deeper than any shipped
//!   scenario: scheduling into a full queue, popping through it
//!   (redistributing buckets, skipping tombstones), and cancel, which must
//!   stay O(1) (it vacates the event's slab slot and leaves its key behind
//!   as a tombstone), since `update_compute` cancels and reschedules a
//!   VM's compute event on every rate change.
//! - 4096 pending events is the scale1024 regime. A full
//!   `scale1024 --threads 1` run schedules 9,261,270 events, pops
//!   5,155,508 and cancels 4,105,762; the queue holds at most 6,612 keys
//!   (6,506 live), and 4,290 on average at a pop.
//! - 256 pending events is the regime lsmbench's workloads run in
//!   (`qos64` keeps about 240).
//!
//! The 4096 and 256 benches run the hold model (pop the head, schedule
//! its successor), alone and with one re-armed lane wake per step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lsm_simcore::event::{EventId, EventQueue};
use lsm_simcore::{SimDuration, SimTime};

const PENDING: u64 = 1_000_000;
/// Pending events in the hold-model benches.
const HELD: [u64; 2] = [256, 4096];
/// Steps per timed iteration of the hold-model benches.
const STEPS: u64 = 10_000;

/// A queue with 1M pending events at distinct, interleaved times —
/// the deterministic stand-in for a fleet's event mix.
fn full_queue() -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..PENDING {
        // Bit-reversed-ish scatter so insertion order is not sorted.
        let t = (i * 2_654_435_761) % PENDING;
        q.schedule(SimTime::from_nanos(t), i);
    }
    q
}

/// A deterministic spread of lead times, 1–1000 ns.
fn lead(k: u64) -> SimDuration {
    SimDuration::from_nanos((k * 2_654_435_761) % 1000 + 1)
}

/// A queue holding event `i` for each `i < held`, and their ids.
fn held_queue(held: u64) -> (EventQueue<u64>, Vec<EventId>) {
    let mut q = EventQueue::new();
    let ids = (0..held)
        .map(|i| q.schedule(SimTime::ZERO + lead(i), i))
        .collect();
    (q, ids)
}

fn bench_eventqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/eventqueue");

    g.bench_function("push_into_1m_pending", |b| {
        let mut q = full_queue();
        let mut i = PENDING;
        b.iter(|| {
            i += 1;
            std::hint::black_box(q.schedule(SimTime::from_nanos(i % PENDING), i))
        })
    });

    g.bench_function("pop_from_1m_pending", |b| {
        b.iter_batched(
            full_queue,
            |mut q| {
                for _ in 0..64 {
                    std::hint::black_box(q.pop());
                }
                q
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("cancel_in_1m_pending", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::new();
                let ids: Vec<_> = (0..PENDING)
                    .map(|i| q.schedule(SimTime::from_nanos((i * 2_654_435_761) % PENDING), i))
                    .collect();
                (q, ids)
            },
            |(mut q, ids)| {
                for id in ids.iter().take(64) {
                    std::hint::black_box(q.cancel(*id));
                }
                (q, ids)
            },
            BatchSize::SmallInput,
        )
    });

    // The update_compute hot-path shape: cancel one event and
    // reschedule it at a new time, with the heap still 1M deep.
    g.bench_function("cancel_reschedule_in_1m_pending", |b| {
        let mut q = full_queue();
        let mut id = q.schedule(SimTime::from_nanos(1), PENDING);
        let mut i = PENDING;
        b.iter(|| {
            q.cancel(id);
            i += 1;
            id = q.schedule(SimTime::from_nanos(i % PENDING), i);
            std::hint::black_box(id)
        })
    });

    for held in HELD {
        // The hold model: pop the head and schedule its successor one
        // lead time later.
        g.bench_function(&format!("hold_{held}_pending"), |b| {
            let (mut q, _) = held_queue(held);
            let mut k = held;
            b.iter(|| {
                for _ in 0..STEPS {
                    let (t, i) = q.pop().expect("held events pending");
                    k += 1;
                    std::hint::black_box(q.schedule(t + lead(k), i));
                }
            })
        });

        // Hold plus the lane-wake shape: each step also cancels one
        // pending event and schedules it again at a new time, as `rearm`
        // does when a lane's next completion moves.
        g.bench_function(&format!("rearm_{held}_pending"), |b| {
            let (mut q, mut ids) = held_queue(held);
            let mut k = held;
            b.iter(|| {
                for _ in 0..STEPS {
                    let (t, i) = q.pop().expect("held events pending");
                    k += 1;
                    ids[i as usize] = q.schedule(t + lead(k), i);
                    let j = (k * 7 % held) as usize;
                    std::hint::black_box(q.cancel(ids[j]));
                    k += 1;
                    ids[j] = q.schedule(t + lead(k), j as u64);
                }
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_eventqueue);
criterion_main!(benches);
