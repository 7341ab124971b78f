//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use —
//! `criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! benchmark groups, `Bencher::iter` / `iter_batched`, `BatchSize`,
//! `black_box` — with a simple wall-clock measurement loop (fixed warm-up
//! plus a few timed batches, mean/min reported). No statistics, no
//! reports on disk; good enough to keep hot paths honest offline.

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost (accepted, not interpreted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: setup runs per iteration batch.
    SmallInput,
    /// Large inputs: fewer iterations per setup.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Measurement driver handed to bench closures.
pub struct Bencher {
    /// Total time and iterations accumulated by the measurement calls.
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        }
    }

    /// Time `routine` over a fixed iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up.
        black_box(routine());
        let iters = 10u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iters += iters;
    }

    /// Time `routine` over values produced by `setup` (setup, and
    /// dropping the routine's output, excluded from the measurement, as
    /// upstream does).
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        black_box(routine(setup()));
        let iters = 10u64;
        for _ in 0..iters {
            let input = setup();
            let start = Instant::now();
            let output = routine(input);
            self.elapsed += start.elapsed();
            black_box(output);
        }
        self.iters += iters;
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Run and report one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        let per_iter = if b.iters > 0 {
            b.elapsed / b.iters as u32
        } else {
            Duration::ZERO
        };
        println!("bench {id:<50} {per_iter:>12.2?}/iter ({} iters)", b.iters);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run and report one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{id}", self.name);
        self.c.bench_function(&full, f);
        self
    }

    /// Accepted for API compatibility; sampling is fixed here.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; warm-up is fixed here.
    pub fn warm_up_time(&mut self, _d: std::time::Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; measurement time is fixed here.
    pub fn measurement_time(&mut self, _d: std::time::Duration) -> &mut Self {
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Define a bench group function from a list of target functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Define `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
