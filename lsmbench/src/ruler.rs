//! A fixed CPU kernel, timed between host-time measurements, that
//! rescales host times to one reference machine speed.
//!
//! On a shared host the speed this process gets drifts: second to second
//! by ±25 %, and for minutes at a time by up to 2×, with no steal time to
//! show for it. A raw wall time then measures the neighbours as much as
//! the simulator. The kernel below (an event heap, an ordered map, a
//! short floating-point pass and small allocations, like the simulator's
//! inner loop, but none of its code) is timed before the first
//! measurement and after every one, on the measuring thread itself plus
//! one spawned thread per further engine thread. So the kernel samples
//! the same stretch of host time, and the same vCPUs, as the
//! measurements. A mean measurement `t` is reported as
//! `t × NOMINAL_S ÷ k`, where `k` is the mean kernel time: the time `t`
//! would have taken at the speed at which the kernel takes
//! [`NOMINAL_S`]. A change to the simulator moves this number as it
//! moves the wall time; the kernel never changes.
//!
//! Means, not medians: one kernel time is too short to say much about
//! the run next to it, but the two means pair up well.
//!
//! The kernel runs on the measuring thread because the two vCPUs drift
//! apart. Timed on a spawned thread, the kernel time next to each
//! `hybrid64` run correlated with the run's wall time at 0.44; on the
//! measuring thread, at 0.77.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, at the reference speed: about its
/// median on a 2-vCPU Intel Xeon VM, one thread.
pub const NOMINAL_S: f64 = 0.05;

/// Event iterations of one kernel run.
const ITERATIONS: u64 = 150_000;

/// Allocations of one kernel run.
const ALLOCATIONS: u64 = 20_000;

/// Times the kernel on `threads` threads, between measurements.
pub struct Ruler {
    threads: usize,
    /// Every kernel time taken, seconds.
    pub samples: Vec<f64>,
}

impl Ruler {
    /// A ruler for code running on `threads` threads; takes the first
    /// kernel time.
    pub fn new(threads: usize) -> Self {
        let mut r = Ruler {
            threads: threads.max(1),
            samples: Vec::new(),
        };
        r.tick();
        r
    }

    /// Time the kernel once more; call after every measurement.
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 1..self.threads {
                s.spawn(move || black_box(kernel(t as u64)));
            }
            black_box(kernel(0));
        });
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// `t`, the mean of the host times measured between the ticks, at
    /// the reference speed.
    pub fn rescale(&self, t: f64) -> f64 {
        t * NOMINAL_S * self.samples.len() as f64 / self.samples.iter().sum::<f64>()
    }
}

/// A deterministic discrete-event-like loop: push and pop timestamped
/// entries, count them in an ordered map, and now and then re-sum a
/// small rate table; then allocate and drop small vectors.
fn kernel(salt: u64) -> u64 {
    let mut heap = BinaryHeap::with_capacity(ITERATIONS as usize / 4);
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rates = [0f64; 64];
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ salt;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x >> 40, i)));
        *counts.entry(x % 8192).or_insert(0) += 1;
        if i % 4 != 0 {
            if let Some(Reverse((t, id))) = heap.pop() {
                acc = acc.wrapping_add(t ^ id ^ counts.get(&(t % 8192)).copied().unwrap_or(0));
            }
        }
        if i % 16 == 0 {
            let k = (x % 64) as usize;
            rates[k] = rates[k] * 0.5 + (i as f64).sqrt();
            acc = acc.wrapping_add(rates.iter().sum::<f64>() as u64);
        }
    }
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..ALLOCATIONS {
        live.push(vec![i ^ acc; (i % 64) as usize + 1]);
        if i % 3 == 0 {
            let j = (i as usize * 7) % live.len();
            acc = acc.wrapping_add(live.swap_remove(j)[0]);
        }
    }
    acc
}
