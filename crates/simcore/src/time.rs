//! Simulated time: nanosecond-resolution instants and durations.
//!
//! All simulated time is kept in integer nanoseconds. Floating point enters
//! only at the edges (rate computations), and conversions round half-up so
//! that `t + transfer_time(bytes, bw)` is stable across platforms.
//!
//! # Rounding without `round`
//!
//! [`SimTime::from_secs_f64`], [`SimDuration::from_secs_f64`] and
//! [`SimDuration::mul_f64`] all round a float count of nanoseconds the way
//! `x.round() as u64` does: half away from zero, with `as`'s saturation
//! (NaN and negatives give 0, `2⁶⁴` and above give `u64::MAX`). They do
//! it in integers: truncate with `as u64`, then add one when the exact
//! fraction `x - t as f64` is at least ½. Below `2⁵²` that subtraction is
//! exact, because the fraction of a float needs no more bits than the float
//! itself. From `2⁵²` up every float is an integer, so the fraction is 0,
//! except from `2⁶⁴` up, where `t` saturates at `u64::MAX` and so does
//! the sum. NaN and negatives truncate to 0 and never reach ½. So the
//! result equals `round()` for every input, unlike `(x + 0.5) as u64`,
//! which rounds `0.49999999999999994` up.
//!
//! The point is speed, not a different rule: baseline x86-64 has no
//! rounding instruction, so `f64::round` is a call into a software libm,
//! and the simulator converts a finish time on every completion query. The
//! integer path is a truncating conversion, a subtraction and a compare.
//!
//! A finish instant is therefore at most half a nanosecond early. A job
//! served at `rate` may complete with up to `rate × 0.5 ns` of work left,
//! which [`finish_residue_bound`] states for the completion checks.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// `x.round() as u64` for every `x`, without calling `f64::round` (see the
/// module docs).
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// The most work a job can have left when it completes at its finish
/// instant: `start` units left when its current `rate` (units per second)
/// began, finish rounded to the nearest nanosecond.
///
/// Rounding can end the job up to half a nanosecond early, leaving
/// `rate × 0.5 ns` unserved; a residue of half a unit or less completes at
/// once without service. The float slack covers the roundings between
/// `start` and the residue: the quotient `start / rate`, its scaling to
/// nanoseconds and back to seconds, the product with `rate` and the
/// subtraction. Each is relative to `start` or to the work served, which
/// is at most `start`, so together they stay below `6 × 2⁻⁵³` of `start`;
/// `2⁻⁴⁸` leaves a margin of five.
pub fn finish_residue_bound(rate: f64, start: f64) -> f64 {
    const SLACK: f64 = 1.0 / (1u64 << 48) as f64;
    (rate * 0.5e-9).max(0.5) + start * SLACK
}

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel "never happens" instant, ordered after every real instant.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative simulation time");
        SimTime(round_u64(s * 1e9))
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`. Saturates at zero if `earlier`
    /// is actually later (callers treat clock skew as "no time passed").
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        debug_assert!(s.is_finite(), "non-finite duration");
        SimDuration(round_u64(s * 1e9))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for rate computations and reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale a duration by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0);
        SimDuration(round_u64(self.0 as f64 * k))
    }
}

/// An instant past the end of the clock is [`SimTime::FAR_FUTURE`]:
/// the sum saturates, and "never" plus anything stays "never".
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::FAR_FUTURE {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!((t1 - t0).as_nanos(), 500_000_000);
        assert_eq!(t1.since(t0), SimDuration::from_millis(500));
        // since() saturates rather than underflowing.
        assert_eq!(t0.since(t1), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_sentinel() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs(1_000_000) < SimTime::FAR_FUTURE);
        assert_eq!(
            SimTime::FAR_FUTURE + SimDuration::from_secs(1),
            SimTime::FAR_FUTURE
        );
    }

    /// Instants past the end of the clock saturate at `FAR_FUTURE`
    /// instead of overflowing, for `+` and `+=` alike.
    #[test]
    fn addition_saturates_at_the_end_of_the_clock() {
        let last = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(last + SimDuration::from_nanos(1), SimTime::FAR_FUTURE);
        assert_eq!(last + SimDuration::from_secs(100), SimTime::FAR_FUTURE);
        let near = SimTime::from_secs_f64(18_446_744_073.0);
        let expire = SimDuration::from_secs_f64(30.0);
        assert_eq!(near + expire, SimTime::FAR_FUTURE);
        let mut t = near;
        t += expire;
        assert_eq!(t, SimTime::FAR_FUTURE);
        let mut t = last;
        t += SimDuration::ZERO;
        assert_eq!(t, last, "a sum that fits is exact");
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn round_u64_matches_round_at_the_edges() {
        let p52 = (1u64 << 52) as f64;
        let cases = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            p52 - 0.5,
            p52 + 0.5,
            p52 - 1.5,
            2.0 * p52 + 1.0,
            2f64.powi(63),
            2f64.powi(64),
            2f64.powi(64) + 2f64.powi(12),
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
        ];
        for x in cases {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
        // The values the rule is about, spelled out.
        assert_eq!(round_u64(0.49999999999999994), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(p52 - 0.5), 1 << 52);
        assert_eq!(round_u64(2f64.powi(64)), u64::MAX);
        assert_eq!(round_u64(f64::NAN), 0);
        assert_eq!(round_u64(-1.5), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: every sign, exponent, subnormal, infinity and
        /// NaN payload.
        #[test]
        fn round_u64_matches_round_on_any_bits(bits in 0u64..u64::MAX) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_u64(x), x.round() as u64, "x = {:e}", x);
        }

        /// The floats within three ulps of `k + ½`, both signs, for `k`
        /// of every magnitude up to `2⁶⁴`.
        #[test]
        fn round_u64_matches_round_next_to_halves(
            m in 0u64..u64::MAX,
            shift in 0u32..64,
            negative in proptest::bool::ANY,
        ) {
            let half = (m >> shift) as f64 + 0.5;
            let half = if negative { -half } else { half };
            for ulps in -3i64..=3 {
                let x = f64::from_bits(half.to_bits().wrapping_add_signed(ulps));
                proptest::prop_assert_eq!(round_u64(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }

    #[test]
    fn finish_residue_bound_is_half_a_nanosecond_of_service() {
        // 0.5 byte below 1 GB/s, 50 bytes at 100 GB/s, a hair of slack.
        assert!((finish_residue_bound(55e6, 0.0) - 0.5).abs() < 1e-12);
        assert!((finish_residue_bound(100e9, 0.0) - 50.0).abs() < 1e-9);
        assert!(finish_residue_bound(100e9, 1e12) - 50.0 < 1e-2);
    }
}
