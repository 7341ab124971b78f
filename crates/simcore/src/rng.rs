//! Deterministic random number generation.
//!
//! All stochastic choices in the simulator (workload offsets, placement,
//! jitter) flow through [`DetRng`], a self-contained xoshiro256++
//! generator seeded by splitmix64 (the build environment has no registry
//! access, so `rand` is not available). Simulations are therefore pure
//! functions of `(configuration, seed)`.

/// A deterministic, seedable RNG with the handful of draws the simulator
/// needs. Sub-streams can be forked so that adding a consumer does not
/// perturb the draws seen by unrelated components.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // splitmix64 expansion, the canonical xoshiro seeding procedure.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit draw (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fork an independent sub-stream identified by `salt`.
    ///
    /// The fork is a pure function of `(parent seed draws so far, salt)`;
    /// two forks with different salts are statistically independent.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(s)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below(0)");
        // Lemire's multiply-shift; bias is < 2^-64 per draw, far below
        // anything the simulator can observe.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.unit() < p
    }

    /// Zipf-like draw over `[0, n)` with exponent `theta` in `(0, 1)`,
    /// using the classic CDF-inversion approximation. Used by hotspot
    /// overwrite workloads (the paper's "same location overwritten
    /// repeatedly" scenario).
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        debug_assert!((0.0..1.0).contains(&theta));
        // Knuth/Gray approximation: x = n * u^(1/(1-theta))
        let u = self.unit();
        let x = (n as f64) * u.powf(1.0 / (1.0 - theta));
        (x as u64).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 5, "streams should be effectively independent");
    }

    #[test]
    fn forks_are_deterministic() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        for _ in 0..100 {
            assert_eq!(fa.below(1000), fb.below(1000));
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ids() {
        let mut r = DetRng::new(11);
        let n = 1000u64;
        let draws = 20_000;
        let low = (0..draws).filter(|_| r.zipf(n, 0.8) < n / 10).count();
        // With theta=0.8 far more than 10% of draws land in the lowest decile.
        assert!(
            low as f64 > draws as f64 * 0.3,
            "zipf skew too weak: {low}/{draws}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
